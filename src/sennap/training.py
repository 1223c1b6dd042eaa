"""Training loops for both modes, the hyperparameter grid, and checkpoints.

Mini-batch Adam with epoch shuffling, early stopping on validation loss, and
best-epoch parameter selection.  All randomness (init, shuffling, dropout,
complement sampling) derives from one seed, so identical configurations yield
byte-identical checkpoints under the same BLAS thread count.

`fit` trains in the calling process with the caller's BLAS threads.
`fit_cell` (one model) and `grid_search` (one per cell) run it as cells of a
store keyed by everything the fit reads, with one BLAS thread, so their bytes
do not depend on the caller's thread settings.  `fit_cell` fits in the calling
process with OpenBLAS pinned to one thread (`runfiles.one_blas_thread`), or,
where no OpenBLAS is found, in one spawned worker.  `grid_search` runs the
cells it has not yet scored on `runfiles.map_in_workers`, in spawned worker
processes with one BLAS thread each.  A grid worker loads its cell from the
store, or fits it and writes it there, then scores it and stores the record,
keyed by the cell and everything the scoring reads; it hands back only the
record and whether the store held the fit, and the caller loads the one
checkpoint it needs.  A cell's worker writes that cell and the caller writes
the rest, each file with `runfiles.write_atomic`, so a killed run keeps every
cell finished before the kill, and a rerun scores no cell twice.

Checkpoint container layout (little-endian):
    magic "SENNAPCK" | u32 version | u64 metadata length | metadata UTF-8
    key=value lines | u32 section count | sections.
Each section: u16 name length, name UTF-8, u8 rank, rank x u32 dims, then the
row-major float32 payload, rank at most 2.  Sections hold every parameter
tensor, then the batch-norm running statistics.  Each LSTM's packed weights
are stored per gate: W_f, W_i, W_c, W_o as (H, H+D), then b_f, b_i, b_c, b_o.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .encoding import Dataset, EncodingSpec
from .errors import CheckpointError, ConfigError, SennapError, TrainingError
from .evaluation import Explanation, summarize, verify_explanations
from .model import NapModelParams, forward_graph, infer, infer_weights, init_model
from .neural import AdamState, adam_step, backward, masked_blend_value, subset_mask
from .posthoc import check_verification
from .runfiles import (
    key_values, map_in_workers, one_blas_thread, parse_key_values, read_bytes, read_text,
    write_atomic,
)
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
            # drop this batch's tape before the next forward builds another
            del total
            weight = x.shape[0]
            for key, value in comps.items():
                totals[key] = totals.get(key, 0.0) + value * weight
        train_stats = {key: value / n for key, value in totals.items()}
        val_stats = _evaluate_loss(params, validation, config, sampler)
        history.append(EpochStats(epoch, train_stats, val_stats))
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
    of it: a grid keeps a cell's scores in a record named by this key and
    `_selection_key`, so one fit serves every selection it is scored on.
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


def _selection_key(selection: Dataset, limit: int, delta: float, n_samples: int) -> str:
    """SHA-256 over everything `_cell_metrics` reads beyond the cell.

    That is the selection set's inputs, targets and instance ids, and the
    limit, delta and sample count; the sampler is fitted on the train set,
    which the cell key holds.
    """
    digest = hashlib.sha256()
    for array in (selection.x, selection.y_activity):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array))
    digest.update(json.dumps([list(selection.ids), limit, repr(delta), n_samples]).encode())
    return digest.hexdigest()


@dataclass
class _FitJob:
    """What every cell of one job reads; each worker receives it once."""

    train: Dataset
    validation: Dataset
    spec: EncodingSpec
    store: Path


@dataclass
class _GridJob(_FitJob):
    """A grid's job: the cells' fit inputs plus what scoring a cell reads."""

    selection: Dataset
    sampler: FeatureSampler
    limit: int
    delta: float
    n_samples: int
    selection_key: str

    def record_path(self, key: str) -> Path:
        return self.store / f"{key}.{self.selection_key}.json"


def _load_or_fit(job: _FitJob, cell: tuple[TrainConfig, str]) -> tuple[Checkpoint, bool]:
    """One cell of the store: load it, or fit it and store it.

    Returns the checkpoint and whether it came from the store.  An unreadable
    stored file is fitted again; a failed fit raises `TrainingError` and
    stores nothing.
    """
    config, key = cell
    path = job.store / f"{key}.ckpt"
    try:
        return load_checkpoint(path), True
    except CheckpointError:
        pass
    # `fit` raises on every non-finite loss and gradient; numpy's warnings on
    # the way there would only print ahead of that error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ckpt = fit(job.train, job.validation, job.spec, config)
    save_checkpoint(ckpt, path)
    return ckpt, False


def _store_cell(job: _FitJob, cell: tuple[TrainConfig, str]) -> bool:
    """`fit_cell`'s worker task: `_load_or_fit`, handing back only its flag."""
    return _load_or_fit(job, cell)[1]


_METRICS = ("val_accuracy", "val_faithfulness", "mean_size")


def _scored(config: TrainConfig, ckpt: Checkpoint, acc: float, faith: float, size: float):
    return GridCell(
        config.learning_rate, config.xi, "ok",
        val_accuracy=acc,
        val_faithfulness=faith,
        mean_size=size,
        best_val_loss=ckpt.best_val_loss,
        epochs_run=len(ckpt.history),
    )


def _record_text(cell: GridCell) -> str:
    return json.dumps(cell.to_record(), sort_keys=True) + "\n"


def _score_cell(job: _GridJob, cell: tuple[TrainConfig, str]) -> tuple[GridCell, bool]:
    """A grid worker's task for one cell: its record, and whether the store held its fit.

    The record is also written to the store (`_GridJob.record_path`).  A
    cell whose fit fails is recorded as failed, and that record is not stored.
    """
    config, key = cell
    try:
        ckpt, stored = _load_or_fit(job, cell)
    except TrainingError as exc:
        return GridCell(config.learning_rate, config.xi, "failed", error=str(exc)), False
    record = _scored(config, ckpt, *_cell_metrics(
        ckpt, job.selection, job.sampler, job.limit, job.delta, job.n_samples
    ))
    write_atomic(job.record_path(key), _record_text(record))
    return record, stored


def _stored_record(job: _GridJob, config: TrainConfig, key: str) -> GridCell | None:
    """The cell's stored record, or None unless it and the cell's checkpoint read back.

    The record must be, byte for byte, the one `_score_cell` writes for
    this config and checkpoint with the metrics it holds.
    """
    try:
        text = read_text(job.record_path(key))
        fields = json.loads(text)
        metrics = [float(fields[name]) for name in _METRICS]
        record = _scored(config, load_checkpoint(job.store / f"{key}.ckpt"), *metrics)
    except (SennapError, ValueError, TypeError, KeyError):
        return None
    return record if _record_text(record) == text else None


def fit_cell(
    train: Dataset,
    validation: Dataset,
    spec: EncodingSpec,
    config: TrainConfig,
    checkpoint_dir: str | Path,
) -> tuple[Checkpoint, bool]:
    """`fit` as one cell of the grid's cell store, with one BLAS thread.

    A checkpoint stored under `checkpoint_dir` with the same key
    (`_cell_keys`) is loaded instead; otherwise the new fit is stored there.
    Returns the checkpoint and whether it came from the store.  Where
    `runfiles` finds the OpenBLAS numpy calls, the fit runs in this process
    with it pinned to one thread (`one_blas_thread`).  Elsewhere, as with
    numpy on MKL or Accelerate, only a new process's environment holds BLAS
    at one thread, so the fit runs as a one-cell job on `map_in_workers`,
    and a calling script needs the `if __name__ == "__main__":` guard, as
    for `grid_search`.  Either way the bytes do not depend on the caller's
    thread settings.
    """
    (key,) = _cell_keys(train, validation, spec, [config])
    job = _FitJob(train, validation, spec, Path(checkpoint_dir))
    with one_blas_thread() as pinned:
        if pinned:
            return _load_or_fit(job, (config, key))
    # unpacking reads the generator to its end, which shuts the pool down
    [stored] = map_in_workers(job, _store_cell, [(config, key)])
    return load_checkpoint(job.store / f"{key}.ckpt"), stored


def _rank(cell: GridCell):
    return (-cell.val_accuracy, -cell.val_faithfulness, cell.mean_size)


def grid_search(
    train: Dataset,
    validation: Dataset,
    spec: EncodingSpec,
    config: TrainConfig,
    checkpoint_dir: str | Path,
    grid: str | tuple[Sequence[float], Sequence[float]] = "full",
    selection_set: Dataset | None = None,
    selection_limit: int = 200,
    delta: float = 0.95,
    n_samples: int = 100,
    log: Callable[[str], None] | None = None,
) -> tuple[GridResult, Checkpoint]:
    """Train one self-explaining model per (learning rate, xi) combination.

    `checkpoint_dir` is the cell store.  A cell already scored on these
    selection inputs has its record there, `<cell key>.<selection key>.json`
    (`_cell_keys`, `_selection_key`); when that record and the cell's
    checkpoint read back, the cell is taken as it is and logged as stored.
    The other cells run on `runfiles.map_in_workers`: spawned worker
    processes, one per available CPU and at most one per cell, each with one
    BLAS thread, so records and checkpoints do not depend on the pool size.
    A worker loads its cell's checkpoint from the store, or trains the cell
    and writes it there, then scores it and writes its record; a failed cell
    writes no record.  With every cell scored, no worker starts.  Workers
    hand back only records; the selected cell's checkpoint is loaded from
    the store.  Each worker imports the caller's main module, so a calling
    script needs the `if __name__ == "__main__":` guard.

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
    job = _GridJob(
        train, validation, spec, Path(checkpoint_dir),
        selection, FeatureSampler.fit(spec, train.x), selection_limit, delta, n_samples,
        _selection_key(selection, selection_limit, delta, n_samples),
    )
    scored = [_stored_record(job, cfg, key) for cfg, key in zip(configs, keys)]

    cells: list[GridCell] = []
    best, best_key = None, None
    unscored = [(cfg, key) for cfg, key, record in zip(configs, keys, scored) if record is None]
    results = map_in_workers(job, _score_cell, unscored)
    try:
        for cell_no, (key, record) in enumerate(zip(keys, scored), 1):
            cell, stored = (record, True) if record is not None else next(results)
            if log:
                log(
                    f"grid cell {cell_no}/{len(plan)}: lr={cell.learning_rate:g} "
                    f"xi={cell.xi:g}" + (" (stored)" if stored else "")
                )
            cells.append(cell)
            if cell.status == "ok" and (best is None or _rank(cell) < _rank(best)):
                best, best_key = cell, key
    finally:
        results.close()  # stops the workers if the loop ends early

    if best is None:
        raise TrainingError("every grid cell failed to train")
    return GridResult(cells=cells, selected=best), load_checkpoint(job.store / f"{best_key}.ckpt")


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def _history_to_json(history: list[EpochStats]) -> str:
    return json.dumps(
        [{"epoch": h.epoch, "train": h.train, "val": h.val} for h in history]
    )


def _history_from_json(text: str) -> list[EpochStats]:
    return [EpochStats(h["epoch"], h["train"], h["val"]) for h in json.loads(text)]


def save_checkpoint(ckpt: Checkpoint, path: str | Path):
    """Serialize to the documented container, atomically; identical inputs yield identical bytes."""
    meta: dict[str, str] = {}
    meta.update(ckpt.spec.to_metadata())
    meta.update(ckpt.config.to_metadata())
    meta["best_epoch"] = str(ckpt.best_epoch)
    meta["best_val_loss"] = repr(ckpt.best_val_loss)
    meta["history"] = _history_to_json(ckpt.history)
    meta_block = key_values(meta).encode("utf-8")

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
    write_atomic(path, b"".join(parts))


# sections are vectors and matrices; the bound keeps a corrupt rank byte out of numpy
MAX_SECTION_RANK = 2


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint container back into live model parameters."""
    data = read_bytes(path, CheckpointError)
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
    meta = parse_key_values(text(meta_len, "metadata"))
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
