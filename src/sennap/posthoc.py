"""Anchors-style post-hoc sufficient-subset search with a per-instance timeout.

Greedy construction over individual flat features of the encoded grid: each
round estimates the prediction-preservation precision of every single-feature
extension of the current subset on one shared set of complement draws and
keeps the best one, stopping once the estimate clears the precision threshold
or the wall clock runs out.  Every Monte-Carlo count, a round's and a single
estimate's alike, goes through `kept_counts`, which scores its draws a group
at a time on every CPU: in a round each `predict` call holds every candidate
of its draws, so the rows of one draw share their prefix in one
`prefix_tree`.  Works against any class-prediction closure that may be
called from several threads at once, so the same machinery is testable on
analytic models.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import runfiles
from .errors import ConfigError
from .model import INFER_CHUNK
from .selfexplain import FeatureSampler


def check_verification(delta: float, n_samples: int):
    """Reject a sufficiency threshold outside (0, 1] or fewer than one sample."""
    if not 0.0 < delta <= 1.0:
        raise ConfigError(f"delta must lie in (0, 1], got {delta}")
    if n_samples < 1:
        raise ConfigError(f"samples must be >= 1, got {n_samples}")


@dataclass
class AnchorConfig:
    precision_threshold: float = 0.95
    n_samples: int = 100
    timeout_s: float = 600.0
    seed: int = 7

    def __post_init__(self):
        check_verification(self.precision_threshold, self.n_samples)
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ConfigError(f"timeout must be positive and finite, got {self.timeout_s}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AnchorResult:
    status: str                # "found" | "timeout"
    indices: tuple[int, ...]   # sorted flat feature indices
    precision: float           # last estimate for `indices`
    wall_time_s: float
    samples_used: int
    rounds: int


def kept_counts(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    base: np.ndarray,
    target: int,
    columns: np.ndarray | None = None,
    stop: Callable[[], bool] | None = None,
) -> tuple[np.ndarray | None, int]:
    """Per candidate, how many of the (S, n) `base` rows keep `target`.

    The package's one count of kept predictions.  With `columns`, candidate
    j's rows are the base rows with column j set to x_j, so every candidate
    sees the same complement draws, laid out draw-major: the rows of one draw
    are adjacent and share everything before their own column.  Without, the
    one candidate is `base` itself.  The draws go in groups of
    g = max(1, INFER_CHUNK // (W * candidates)), one `predict` call each, on
    `runfiles.map_in_threads`: the caller and the helpers idle at the time,
    W threads at most.  So the rows in flight stay within one inference
    chunk, or within W draws when one draw's candidates alone fill more.  The
    counts are summed as integers, so they do not depend on W.  `stop`, when
    given, is asked before each group starts; if it ends the count early the
    counts are None.  The second value is the rows submitted, those of every
    group that started.
    """
    S, n = base.shape
    c = 1 if columns is None else len(columns)
    g = max(1, INFER_CHUNK // (runfiles.thread_workers() * c))

    def count(lo: int) -> np.ndarray:
        rows = base[lo : lo + g]
        if columns is not None:
            rows = np.repeat(rows[:, None, :], c, axis=1)
            rows[:, np.arange(c), columns] = x_flat[columns]
        return (predict(rows.reshape(-1, n)).reshape(-1, c) == target).sum(axis=0)

    groups = range(0, S, g)
    counts = runfiles.map_in_threads(count, groups, stop=stop)
    rows = min(len(counts) * g, S) * c
    if len(counts) < len(groups):
        return None, rows
    return np.sum(counts, axis=0), rows


def estimate_precision(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    subset: Iterable[int] | np.ndarray,
    sampler: FeatureSampler,
    n_samples: int,
    rng: np.random.Generator,
    target: int | None = None,
) -> float:
    """Monte-Carlo estimate of P[prediction unchanged | z_S = x_S, complement ~ D].

    The kept count of `n_samples` draws, divided by `n_samples`.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    x_flat = np.asarray(x_flat, dtype=np.float32).reshape(-1)
    mask = np.zeros(x_flat.shape[0], dtype=bool)
    subset = np.asarray(list(subset) if not isinstance(subset, np.ndarray) else subset)
    if subset.dtype == bool:
        mask = subset
    elif subset.size:
        mask[subset.astype(np.int64)] = True
    if target is None:
        target = int(predict(x_flat[None])[0])
    base = np.where(mask, x_flat, sampler.draw(rng, n_samples))
    kept, _ = kept_counts(predict, x_flat, base, target)
    return int(kept[0]) / n_samples


def greedy_anchor_search(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    config: AnchorConfig,
    sampler: FeatureSampler,
    rng: np.random.Generator | None = None,
) -> AnchorResult:
    """Grow a feature subset until its estimated precision clears the threshold.

    Each round draws its S complement rows once, base = where(subset, x, draws),
    and estimates every one-feature extension on those common draws: a
    candidate's estimate is its `kept_counts` count divided by S, whatever
    the number of threads W.  A candidate only counts as found after a
    confirmation estimate on fresh draws also clears the threshold; picking
    the maximum of many noisy estimates would otherwise systematically
    overstate precision.  Features are never removed once added, and ties go
    to the smallest feature index.  The timeout is checked before every group
    of a round starts; it produces status "timeout" with the best subset found
    so far, not an error, once the groups already started are done.
    `samples_used` counts every Monte-Carlo row submitted to `predict`: S per
    estimate and the rows of every group that started.  The instance's own
    row, predicted once for its target class, is not counted.  The process's
    OpenBLAS runs one thread for the whole search (`runfiles.one_blas_thread`).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    x_flat = np.asarray(x_flat, dtype=np.float32).reshape(-1)
    n = x_flat.shape[0]
    S = config.n_samples
    samples_used = 0

    def expired() -> bool:
        return time.perf_counter() - start > config.timeout_s

    def precision_of(subset: np.ndarray) -> float:
        nonlocal samples_used
        samples_used += S
        return estimate_precision(predict, x_flat, subset, sampler, S, rng, target=target)

    def result(status, subset, precision, rounds):
        return AnchorResult(
            status, tuple(int(j) for j in np.flatnonzero(subset)), precision,
            time.perf_counter() - start, samples_used, rounds,
        )

    with runfiles.one_blas_thread():
        target = int(predict(x_flat[None])[0])
        subset = np.zeros(n, dtype=bool)
        precision = precision_of(subset)
        best_precision, best_subset = -1.0, subset
        rounds = 0
        while True:
            if precision >= config.precision_threshold:
                precision = precision_of(subset)
                if precision >= config.precision_threshold:
                    return result("found", subset, precision, rounds)
            # a failed confirmation keeps the fresh, lower estimate
            if precision > best_precision:
                best_precision, best_subset = precision, subset
            rounds += 1
            base = np.where(subset, x_flat, sampler.draw(rng, S))
            # the full set estimates at exactly 1.0, so some feature is always left
            free = np.flatnonzero(~subset)
            kept, rows = kept_counts(predict, x_flat, base, target, free, expired)
            samples_used += rows
            if kept is None:
                return result("timeout", best_subset, best_precision, rounds)
            estimates = np.full(n, -1.0)
            estimates[free] = kept / S
            # argmax takes the first maximum: ties go to the smallest feature index
            best = int(np.argmax(estimates))
            precision = float(estimates[best])
            subset = subset.copy()
            subset[best] = True
