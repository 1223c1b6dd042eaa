"""Anchors-style post-hoc sufficient-subset search with a per-instance timeout.

Greedy construction over individual flat features of the encoded grid: each
round batch-estimates the prediction-preservation precision of every
single-feature extension of the current subset and keeps the best one,
stopping once the estimate clears the precision threshold or the wall clock
runs out.  Works against any class-prediction closure, so the same machinery
is testable on analytic models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError
from .selfexplain import FeatureSampler


@dataclass
class AnchorConfig:
    precision_threshold: float = 0.95
    n_samples: int = 100
    timeout_s: float = 600.0
    seed: int = 7

    def __post_init__(self):
        if not 0.0 < self.precision_threshold <= 1.0:
            raise ConfigError("precision threshold must lie in (0, 1]")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigError("timeout must be positive")


@dataclass
class AnchorResult:
    status: str                # "found" | "timeout"
    indices: tuple[int, ...]   # sorted flat feature indices
    precision: float           # last estimate for `indices`
    wall_time_s: float
    samples_used: int
    rounds: int


def estimate_precision(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    subset: Iterable[int] | np.ndarray,
    sampler: FeatureSampler,
    n_samples: int,
    rng: np.random.Generator,
    target: int | None = None,
) -> float:
    """Monte-Carlo estimate of P[prediction unchanged | z_S = x_S, complement ~ D]."""
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
    z = np.where(mask, x_flat, sampler.draw(rng, n_samples))
    return float(np.mean(predict(z) == target))


def greedy_anchor_search(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    config: AnchorConfig,
    sampler: FeatureSampler,
    rng: np.random.Generator | None = None,
) -> AnchorResult:
    """Grow a feature subset until its estimated precision clears the threshold.

    A candidate only counts as found after a confirmation estimate on fresh
    draws also clears the threshold; picking the maximum of many noisy
    estimates would otherwise systematically overstate precision.  Features
    are never removed once added.  Timeout produces status "timeout" with the
    best subset found so far, not an error.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    x_flat = np.asarray(x_flat, dtype=np.float32).reshape(-1)
    n = x_flat.shape[0]
    target = int(predict(x_flat[None])[0])
    samples_used = 0

    def precision_of(subset: tuple[int, ...]) -> float:
        nonlocal samples_used
        samples_used += config.n_samples
        return estimate_precision(
            predict, x_flat, np.array(subset, dtype=np.int64), sampler,
            config.n_samples, rng, target=target,
        )

    def result(status, subset, precision, rounds):
        return AnchorResult(
            status, subset, precision, time.perf_counter() - start,
            samples_used, rounds,
        )

    subset: tuple[int, ...] = ()
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
        # the full set estimates at exactly 1.0, so some feature is always left;
        # ties go to the smallest feature index
        base, precision = subset, -1.0
        for feature in range(n):
            if feature in base:
                continue
            if time.perf_counter() - start > config.timeout_s:
                return result("timeout", best_subset, best_precision, rounds)
            extended = tuple(sorted(base + (feature,)))
            estimate = precision_of(extended)
            if estimate > precision:
                precision, subset = estimate, extended
