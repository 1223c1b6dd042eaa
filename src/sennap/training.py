"""Training loops for both modes, the hyperparameter grid, and checkpoints.

Mini-batch Adam with epoch shuffling, early stopping on validation loss, and
best-epoch parameter selection.  All randomness (init, shuffling, dropout,
complement sampling) derives from one seed, so identical configurations yield
byte-identical checkpoints.

Checkpoint container layout (little-endian):
    magic "SENNAPCK" | u32 version | u64 metadata length | metadata UTF-8
    key=value lines | u32 section count | sections.
Each section: u16 name length, name UTF-8, u8 rank, rank x u32 dims, then the
row-major float32 payload, rank at most 2.  Sections hold every parameter
tensor, then the batch-norm running statistics.  Each LSTM's packed weights
are stored per gate: W_f, W_i, W_c, W_o as (H, H+D), then b_f, b_i, b_c, b_o.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import struct
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .encoding import Dataset, EncodingSpec
from .errors import CheckpointError, ConfigError, SennapError, TrainingError
from .evaluation import Explanation, check_verification, summarize, verify_explanations
from .model import NapModelParams, forward_graph, infer, infer_weights, init_model
from .neural import AdamState, adam_step, backward, masked_blend_value, subset_mask
from .selfexplain import FeatureSampler, dual_propagate, senn_loss_values, senn_losses

LEARNING_RATE_GRID = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
XI_GRID_FULL = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
XI_GRID_SMALL = (1e-9, 1e-10)

CHECKPOINT_MAGIC = b"SENNAPCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "baseline"  # or "selfexplain"
    learning_rate: float = 0.002
    xi: float = 0.0
    lam: float = 1.0
    tau: float = 0.5
    batch_size: int = 64
    max_epochs: int = 150
    patience: int = 20
    seed: int = 7

    def __post_init__(self):
        if self.mode not in ("baseline", "selfexplain"):
            raise ConfigError(f"unknown training mode {self.mode!r}")
        for name in ("learning_rate", "xi", "lam", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.xi < 0 or self.lam < 0:
            raise ConfigError("loss coefficients must be nonnegative")
        if self.mode == "baseline" and self.xi > 0:
            raise ConfigError(
                "xi > 0 needs mode selfexplain (a baseline model has no explanation scores)"
            )
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("batch size / epochs / patience out of range")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_metadata(self) -> dict[str, str]:
        out = {}
        for key, value in asdict(self).items():
            out[f"config.{key}"] = repr(value) if isinstance(value, float) else str(value)
        return out

    @classmethod
    def from_metadata(cls, meta: dict[str, str]) -> "TrainConfig":
        return cls(
            mode=meta["config.mode"],
            learning_rate=float(meta["config.learning_rate"]),
            xi=float(meta["config.xi"]),
            lam=float(meta["config.lam"]),
            tau=float(meta["config.tau"]),
            batch_size=int(meta["config.batch_size"]),
            max_epochs=int(meta["config.max_epochs"]),
            patience=int(meta["config.patience"]),
            seed=int(meta["config.seed"]),
        )


@dataclass
class EpochStats:
    epoch: int
    train: dict[str, float]
    val: dict[str, float]


@dataclass
class Checkpoint:
    spec: EncodingSpec
    config: TrainConfig
    params: NapModelParams
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float


def _batch_losses(params, x, y_act, y_time, config, sampler, rng):
    """Build the training loss graph for one batch according to the configured mode."""
    if config.mode == "selfexplain" and config.lam > 0.0:
        dual = dual_propagate(params, x, config.tau, sampler, rng)
        return senn_losses(
            dual.first, dual.nap_logits_masked, dual.predicted,
            y_act, y_time, config.lam, config.xi,
        )
    first = forward_graph(params, x, train=True, rng=rng)
    return senn_losses(first, None, None, y_act, y_time, 0.0, config.xi)


def _evaluate_loss(params, dataset, config, sampler, batch_size=1024):
    """Inference-mode loss over a dataset (weighted mean of batch components).

    Tape-free: `infer` gives each batch's logits, time output and scores,
    and for the faithfulness term the logits of the masked input, which
    takes each row's noise where the scores leave it out.  The complement
    noise comes from a stream re-seeded on every call, one draw per batch,
    so the loss depends only on the parameters and never moves the
    training stream.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(3,))
    )
    lam = config.lam if config.mode == "selfexplain" else 0.0
    weights = infer_weights(params, dataset.x.dtype, time=True)
    totals: dict[str, float] = {}
    seen = 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.x[start : start + batch_size]
        y_act = dataset.y_activity[start : start + x.shape[0]]
        y_time = dataset.y_time[start : start + x.shape[0]]
        first = infer(params, x, time=True, weights=weights)
        masked = predicted = None
        if lam > 0.0:
            noise = sampler.draw(rng, x.shape[0])
            z, _ = masked_blend_value(
                first.scores, x.reshape(x.shape[0], -1), noise, sampler.forced_mask, config.tau
            )
            masked = infer(params, z.reshape(x.shape), nap_only=True, weights=weights).logits
            predicted = first.classes
        comps = senn_loss_values(first, masked, predicted, y_act, y_time, lam, config.xi)
        weight = x.shape[0]
        for key, value in comps.items():
            totals[key] = totals.get(key, 0.0) + value * weight
        seen += weight
    return {key: value / seen for key, value in totals.items()}


def fit(
    train: Dataset,
    validation: Dataset,
    spec: EncodingSpec,
    config: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> Checkpoint:
    """Train one model; returns the parameters of the best validation epoch."""
    if len(train) == 0 or len(validation) == 0:
        raise TrainingError("train and validation sets must be nonempty")
    selfexplain = config.mode == "selfexplain"
    params = init_model(
        spec.vocab_size, spec.k, selfexplain=selfexplain, seed=config.seed
    )
    sampler = FeatureSampler.fit(spec, train.x) if selfexplain else None
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(2,))
    )
    state = AdamState()
    named = params.named_parameters()

    best_loss = np.inf
    best_params = None
    best_epoch = -1
    history: list[EpochStats] = []
    n = len(train)

    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        totals: dict[str, float] = {}
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            x = train.x[idx]
            y_act = train.y_activity[idx]
            y_time = train.y_time[idx]
            total, comps = _batch_losses(params, x, y_act, y_time, config, sampler, rng)
            if not np.isfinite(comps["total"]):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} batch {start // config.batch_size}: "
                    f"{comps} (lr={config.learning_rate}, xi={config.xi})"
                )
            backward(total)
            for name, p in named:
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    raise TrainingError(
                        f"non-finite gradient in {name!r} at epoch {epoch} "
                        f"batch {start // config.batch_size}: {comps}"
                    )
            adam_step(named, state, config.learning_rate)
            weight = x.shape[0]
            for key, value in comps.items():
                totals[key] = totals.get(key, 0.0) + value * weight
        train_stats = {key: value / n for key, value in totals.items()}
        val_stats = _evaluate_loss(params, validation, config, sampler)
        history.append(EpochStats(epoch, train_stats, val_stats))
        if log:
            log(
                f"epoch {epoch:3d}  train {train_stats['total']:.4f}  "
                f"val {val_stats['total']:.4f}"
            )
        if val_stats["total"] < best_loss:
            best_loss = val_stats["total"]
            best_params = params.copy()
            best_epoch = epoch
        elif epoch - best_epoch > config.patience:
            break

    if best_params is None:
        raise TrainingError(
            f"no epoch of {len(history)} gave a finite validation loss "
            f"(last {history[-1].val['total']}; lr={config.learning_rate}, xi={config.xi})"
        )
    return Checkpoint(
        spec=spec,
        config=config,
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=float(best_loss),
    )


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


@dataclass
class GridCell:
    learning_rate: float
    xi: float
    status: str  # "ok" | "failed"
    val_accuracy: float = 0.0
    val_faithfulness: float = 0.0
    mean_size: float = 0.0
    best_val_loss: float = float("inf")
    epochs_run: int = 0
    error: str = ""

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class GridResult:
    cells: list[GridCell]
    selected: GridCell | None


def grid_plan(grid: str | tuple[Sequence[float], Sequence[float]]):
    """Expand a grid name or an explicit (learning rates, xis) pair to cells."""
    if grid == "full":
        lrs, xis = LEARNING_RATE_GRID, XI_GRID_FULL
    elif grid == "small":
        lrs, xis = LEARNING_RATE_GRID, XI_GRID_SMALL
    elif isinstance(grid, tuple) and len(grid) == 2:
        lrs, xis = grid
    else:
        raise ConfigError(f"unknown grid {grid!r}")
    if not lrs or not xis:
        raise ConfigError("grid axes must be nonempty")
    return [(float(lr), float(xi)) for lr in lrs for xi in xis]


def _cell_metrics(
    ckpt: Checkpoint,
    selection: Dataset,
    sampler: FeatureSampler,
    limit: int,
    delta: float,
    n_samples: int,
):
    """Validation accuracy plus faithfulness/size over the first `limit` instances.

    One inference pass over the whole selection set yields both the classes
    and the explanation scores.  It is not cut to `limit` rows: BLAS rounds
    1-3 row matmuls differently from larger batches, so the scores would move.
    """
    out = infer(ckpt.params, selection.x)
    acc = int(np.sum(out.classes == selection.y_activity)) / len(selection)
    n = min(limit, len(selection))
    masks = subset_mask(out.scores[:n], ckpt.config.tau, ckpt.spec.forced_flat_mask())
    explanations = [
        Explanation(selection.ids[i], "selfexplain", tuple(np.flatnonzero(mask)), None, 0.0)
        for i, mask in enumerate(masks)
    ]
    verified = verify_explanations(
        ckpt.params, selection, explanations, sampler, delta, n_samples,
        seed=ckpt.config.seed,
    )
    report = summarize(verified)
    return acc, report.sufficient_overall, report.mean_size


def _cell_keys(
    train: Dataset, validation: Dataset, spec: EncodingSpec, configs: Sequence[TrainConfig]
) -> list[str]:
    """The cell store's key per config: SHA-256 over everything `fit` reads.

    That is the encoding spec, the train and validation arrays, the config,
    and the checkpoint and package versions.  Selection inputs are not part
    of it: a cell's metrics are computed again on every search.
    """
    base = hashlib.sha256(json.dumps(spec.to_metadata(), sort_keys=True).encode())
    for data in (train, validation):
        for array in (data.x, data.y_activity, data.y_time):
            base.update(f"{array.dtype.str}{array.shape}".encode())
            base.update(np.ascontiguousarray(array))
    base.update(f"{CHECKPOINT_VERSION} {__version__}".encode())
    keys = []
    for config in configs:
        digest = base.copy()
        digest.update(json.dumps(config.to_metadata(), sort_keys=True).encode())
        keys.append(digest.hexdigest())
    return keys


@dataclass
class _CellJob:
    """What every cell of one search reads; each worker receives it once."""

    train: Dataset
    validation: Dataset
    selection: Dataset
    sampler: FeatureSampler
    spec: EncodingSpec
    store: Path | None
    limit: int
    delta: float
    n_samples: int


_job: _CellJob | None = None  # set in each worker process by its initializer


def _start_worker(path: Path):
    global _job
    _job = pickle.loads(path.read_bytes())


def _run_cell(config: TrainConfig, key: str) -> tuple[GridCell, bytes | None, bool]:
    """A worker's whole job for one cell: load it from the store or fit it, then score it.

    Returns the cell's record, its checkpoint bytes (None if it failed) and
    whether it came from the store.  An unreadable stored file is trained
    again.
    """
    job = _job
    ckpt = None
    if job.store is not None:
        path = job.store / f"{key}.ckpt"
        try:
            blob = path.read_bytes()
            ckpt = _parse_checkpoint(blob, path)
        except (FileNotFoundError, CheckpointError):
            pass
    stored = ckpt is not None
    if not stored:
        try:
            ckpt = fit(job.train, job.validation, job.spec, config)
        except TrainingError as exc:
            return GridCell(config.learning_rate, config.xi, "failed", error=str(exc)), None, False
        blob = _checkpoint_bytes(ckpt)
    acc, faith, size = _cell_metrics(
        ckpt, job.selection, job.sampler, job.limit, job.delta, job.n_samples
    )
    cell = GridCell(
        config.learning_rate, config.xi, "ok",
        val_accuracy=acc,
        val_faithfulness=faith,
        mean_size=size,
        best_val_loss=ckpt.best_val_loss,
        epochs_run=len(ckpt.history),
    )
    return cell, blob, stored


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Processes started inside see one BLAS thread; the environment is restored after.

    A spawned child imports numpy before any pool initializer runs, so the
    setting has to be in the environment it starts with.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


@contextlib.contextmanager
def _cell_pool(job: _CellJob, configs: Sequence[TrainConfig], keys: Sequence[str]):
    """Submit every cell to a spawned pool; yields the futures in plan order.

    The pool has one worker per available CPU, at most one per cell, each
    with one BLAS thread, and is shut down on exit.  The workers read `job`
    from a file: a worker that dies before it reads a large start-up
    argument would leave the parent blocked writing it.
    """
    with tempfile.TemporaryDirectory(prefix="sennap-grid-") as scratch:
        path = Path(scratch) / "job.pickle"
        path.write_bytes(pickle.dumps(job))
        pool = ProcessPoolExecutor(
            min(_cpu_count(), len(configs)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker,
            initargs=(path,),
        )
        try:
            # the pool starts its workers as tasks arrive
            with _one_blas_thread():
                futures = [pool.submit(_run_cell, cfg, key) for cfg, key in zip(configs, keys)]
            yield futures
        finally:
            pool.shutdown(cancel_futures=True)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rank(cell: GridCell):
    return (-cell.val_accuracy, -cell.val_faithfulness, cell.mean_size)


def grid_search(
    train: Dataset,
    validation: Dataset,
    spec: EncodingSpec,
    config: TrainConfig,
    grid: str | tuple[Sequence[float], Sequence[float]] = "full",
    selection_set: Dataset | None = None,
    selection_limit: int = 200,
    delta: float = 0.95,
    n_samples: int = 100,
    checkpoint_dir: str | Path | None = None,
    log: Callable[[str], None] | None = None,
) -> tuple[GridResult, Checkpoint]:
    """Train one self-explaining model per (learning rate, xi) combination.

    Cells run in a pool of spawned worker processes, one per available CPU
    and at most one per cell, each with one BLAS thread, so records and
    checkpoints do not depend on the pool size.  `checkpoint_dir` is the cell
    store: a cell whose key (`_cell_keys`) has a readable checkpoint there is
    loaded instead of trained, and every newly trained cell is written there.
    Each worker imports the caller's main module, so a calling script needs
    the `if __name__ == "__main__":` guard.

    Selection: highest validation accuracy, ties broken by higher
    faithfulness rate, then smaller mean explanation size.  Failed cells are
    recorded and excluded; if everything fails the search raises.
    """
    plan = grid_plan(grid)
    selection = selection_set if selection_set is not None else validation
    if len(selection) == 0:
        raise ConfigError("grid selection set is empty")
    if selection_limit < 1:
        raise ConfigError(f"selection limit must be >= 1, got {selection_limit}")
    check_verification(delta, n_samples)
    configs = [replace(config, mode="selfexplain", learning_rate=lr, xi=xi) for lr, xi in plan]
    keys = _cell_keys(train, validation, spec, configs)
    store = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if store is not None:
        store.mkdir(parents=True, exist_ok=True)
    job = _CellJob(
        train, validation, selection, FeatureSampler.fit(spec, train.x), spec, store,
        selection_limit, delta, n_samples,
    )

    cells: list[GridCell] = []
    best, best_blob = None, None
    with _cell_pool(job, configs, keys) as futures:
        for cell_no, (future, key) in enumerate(zip(futures, keys), 1):
            try:
                cell, blob, stored = future.result()
            except BrokenProcessPool as exc:
                raise TrainingError(f"a grid worker process ended unexpectedly: {exc}") from exc
            if log:
                log(
                    f"grid cell {cell_no}/{len(plan)}: lr={cell.learning_rate:g} "
                    f"xi={cell.xi:g}" + (" (stored)" if stored else "")
                )
            cells.append(cell)
            if blob is not None and store is not None and not stored:
                _write_atomic(store / f"{key}.ckpt", blob)
            if cell.status == "ok" and (best is None or _rank(cell) < _rank(best)):
                best, best_blob = cell, blob

    if best is None:
        raise TrainingError("every grid cell failed to train")
    return GridResult(cells=cells, selected=best), _parse_checkpoint(best_blob, "grid cell")


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def _history_to_json(history: list[EpochStats]) -> str:
    return json.dumps(
        [{"epoch": h.epoch, "train": h.train, "val": h.val} for h in history]
    )


def _history_from_json(text: str) -> list[EpochStats]:
    return [EpochStats(h["epoch"], h["train"], h["val"]) for h in json.loads(text)]


def _checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """Serialize to the documented container; identical inputs yield identical bytes."""
    meta: dict[str, str] = {}
    meta.update(ckpt.spec.to_metadata())
    meta.update(ckpt.config.to_metadata())
    meta["best_epoch"] = str(ckpt.best_epoch)
    meta["best_val_loss"] = repr(ckpt.best_val_loss)
    meta["history"] = _history_to_json(ckpt.history)
    meta_block = _key_values(meta).encode("utf-8")

    sections = ckpt.params.sections()
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<Q", len(meta_block)),
        meta_block,
        struct.pack("<I", len(sections)),
    ]
    for name, array in sections:
        encoded = name.encode("utf-8")
        data = np.ascontiguousarray(array, dtype="<f4")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes())
    return b"".join(parts)


def _write_atomic(path: Path, data: bytes):
    """Write a temporary file beside `path`, then rename it over `path`."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(ckpt: Checkpoint, path: str | Path):
    """Serialize to the documented container; a reader never sees a partly written file."""
    _write_atomic(Path(path), _checkpoint_bytes(ckpt))


# sections are vectors and matrices; the bound keeps a corrupt rank byte out of numpy
MAX_SECTION_RANK = 2


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint container back into live model parameters."""
    return _parse_checkpoint(Path(path).read_bytes(), path)


def _parse_checkpoint(data: bytes, path: str | Path) -> Checkpoint:
    """`load_checkpoint` on bytes in memory; `path` names them in errors."""
    offset = 0

    def take(count: int, what: str) -> bytes:
        # every declared length is checked against the bytes left before the read
        nonlocal offset
        if count > len(data) - offset:
            raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
        offset += count
        return data[offset - count : offset]

    def text(count: int, what: str) -> str:
        try:
            return take(count, what).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not valid UTF-8") from None

    if take(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    (meta_len,) = struct.unpack("<Q", take(8, "metadata length"))
    meta = _parse_key_values(text(meta_len, "metadata"))
    (n_sections,) = struct.unpack("<I", take(4, "section count"))
    sections: dict[str, np.ndarray] = {}
    for _ in range(n_sections):
        (name_len,) = struct.unpack("<H", take(2, "section name"))
        name = text(name_len, "section name")
        (rank,) = struct.unpack("<B", take(1, "section rank"))
        if rank > MAX_SECTION_RANK:
            raise CheckpointError(f"{path}: section {name!r} has rank {rank}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "section dims"))
        payload = take(4 * math.prod(dims), f"section {name!r} data")
        sections[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)

    try:
        spec = EncodingSpec.from_metadata(meta)
        config = TrainConfig.from_metadata(meta)
        history = _history_from_json(meta["history"])
        best_epoch = int(meta["best_epoch"])
        best_val_loss = float(meta["best_val_loss"])
    except (KeyError, ValueError, TypeError, SennapError) as exc:
        raise CheckpointError(f"{path}: malformed metadata ({exc})") from None

    params = init_model(
        spec.vocab_size, spec.k, selfexplain=config.mode == "selfexplain", seed=None
    )
    for name, array in params.sections():
        if name not in sections:
            raise CheckpointError(f"{path}: missing section {name!r}")
        if sections[name].shape != array.shape:
            raise CheckpointError(
                f"{path}: section {name!r} has shape {sections[name].shape}, "
                f"expected {array.shape}"
            )
        array[...] = sections[name]
    return Checkpoint(
        spec=spec,
        config=config,
        params=params,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_val_loss,
    )


# ---------------------------------------------------------------------------
# key=value text: checkpoint metadata and manifests
# ---------------------------------------------------------------------------


def _key_values(entries: dict[str, object]) -> str:
    """One `key=value` line per entry, in insertion order; values are kept verbatim."""
    return "".join(f"{key}={value}\n" for key, value in entries.items())


def _parse_key_values(text: str) -> dict[str, str]:
    """Inverse of `_key_values`; blank lines and lines starting with '#' are skipped."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def write_manifest(path: str | Path, entries: dict[str, object]):
    """UTF-8 key=value audit file (one entry per line, insertion order)."""
    Path(path).write_text(_key_values(entries), encoding="utf-8")


def read_manifest(path: str | Path) -> dict[str, str]:
    """Read a `write_manifest` file; an unreadable file is a `ConfigError` naming it."""
    path = Path(path)
    try:
        return _parse_key_values(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
