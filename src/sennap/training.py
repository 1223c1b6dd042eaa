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

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .encoding import Dataset, EncodingSpec
from .errors import CheckpointError, ConfigError, SennapError, TrainingError
from .evaluation import Explanation, check_verification, summarize, verify_explanations
from .model import NapModelParams, forward_graph, infer, init_model
from .neural import AdamState, adam_step, backward, subset_mask
from .selfexplain import FeatureSampler, dual_propagate, senn_losses

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


def _batch_losses(params, x, y_act, y_time, config, sampler, rng, *, train):
    """Build the loss graph for one batch according to the configured mode."""
    if config.mode == "selfexplain" and config.lam > 0.0:
        dual = dual_propagate(
            params, x, config.tau, sampler, rng, train=train
        )
        return senn_losses(
            dual.first, dual.nap_logits_masked, dual.predicted,
            y_act, y_time, config.lam, config.xi,
        )
    first = forward_graph(params, x, train=train, rng=rng)
    return senn_losses(first, None, None, y_act, y_time, 0.0, config.xi)


def _evaluate_loss(params, dataset, config, sampler, batch_size=1024):
    """Inference-mode loss over a dataset (weighted mean of batch components).

    The complement noise comes from a stream re-seeded on every call, so the
    loss depends only on the parameters and never moves the training stream.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(3,))
    )
    totals: dict[str, float] = {}
    seen = 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.x[start : start + batch_size]
        y_act = dataset.y_activity[start : start + x.shape[0]]
        y_time = dataset.y_time[start : start + x.shape[0]]
        _, comps = _batch_losses(
            params, x, y_act, y_time, config, sampler, rng, train=False
        )
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
            total, comps = _batch_losses(
                params, x, y_act, y_time, config, sampler, rng, train=True
            )
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

    Selection: highest validation accuracy, ties broken by higher
    faithfulness rate, then smaller mean explanation size.  Failed cells are
    recorded and excluded; if everything fails the search raises.
    """
    cells = []
    plan = grid_plan(grid)
    selection = selection_set if selection_set is not None else validation
    if len(selection) == 0:
        raise ConfigError("grid selection set is empty")
    if selection_limit < 1:
        raise ConfigError(f"selection limit must be >= 1, got {selection_limit}")
    check_verification(delta, n_samples)
    sampler = FeatureSampler.fit(spec, train.x)
    checkpoints: dict[int, Checkpoint] = {}
    for cell_no, (lr, xi) in enumerate(plan):
        cfg = replace(config, mode="selfexplain", learning_rate=lr, xi=xi)
        if log:
            log(f"grid cell {cell_no + 1}/{len(plan)}: lr={lr:g} xi={xi:g}")
        try:
            ckpt = fit(train, validation, spec, cfg)
        except TrainingError as exc:
            cells.append(GridCell(lr, xi, "failed", error=str(exc)))
            continue
        acc, faith, size = _cell_metrics(
            ckpt, selection, sampler, selection_limit, delta, n_samples
        )
        cells.append(
            GridCell(
                lr, xi, "ok",
                val_accuracy=acc,
                val_faithfulness=faith,
                mean_size=size,
                best_val_loss=ckpt.best_val_loss,
                epochs_run=len(ckpt.history),
            )
        )
        checkpoints[len(cells) - 1] = ckpt
        if checkpoint_dir is not None:
            path = Path(checkpoint_dir) / f"cell_lr{lr:g}_xi{xi:g}.ckpt"
            save_checkpoint(ckpt, path)

    ok = [(i, c) for i, c in enumerate(cells) if c.status == "ok"]
    if not ok:
        raise TrainingError("every grid cell failed to train")
    best_i, best = min(
        ok, key=lambda item: (-item[1].val_accuracy, -item[1].val_faithfulness, item[1].mean_size)
    )
    return GridResult(cells=cells, selected=best), checkpoints[best_i]


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
    """Serialize to the documented container; identical inputs yield identical bytes."""
    meta: dict[str, str] = {}
    meta.update(ckpt.spec.to_metadata())
    meta.update(ckpt.config.to_metadata())
    meta["best_epoch"] = str(ckpt.best_epoch)
    meta["best_val_loss"] = repr(ckpt.best_val_loss)
    meta["history"] = _history_to_json(ckpt.history)
    meta_block = "".join(f"{k}={v}\n" for k, v in meta.items()).encode("utf-8")

    sections = ckpt.params.sections()
    with Path(path).open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", CHECKPOINT_VERSION))
        handle.write(struct.pack("<Q", len(meta_block)))
        handle.write(meta_block)
        handle.write(struct.pack("<I", len(sections)))
        for name, array in sections:
            encoded = name.encode("utf-8")
            data = np.ascontiguousarray(array, dtype="<f4")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<B", data.ndim))
            handle.write(struct.pack(f"<{data.ndim}I", *data.shape))
            handle.write(data.tobytes())


# sections are vectors and matrices; the bound keeps a corrupt rank byte out of numpy
MAX_SECTION_RANK = 2


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint container back into live model parameters."""
    path = Path(path)
    data = path.read_bytes()
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
    meta: dict[str, str] = {}
    for line in text(meta_len, "metadata").splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
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
# manifests
# ---------------------------------------------------------------------------


def write_manifest(path: str | Path, entries: dict[str, object]):
    """UTF-8 key=value audit file (one entry per line, insertion order)."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for key, value in entries.items():
            handle.write(f"{key}={value}\n")


def read_manifest(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out
