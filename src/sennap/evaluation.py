"""Explanation quality metrics, verification, reports, and text rendering.

Both explanation methods are judged by the same Monte-Carlo sufficiency check:
fix the subset, resample the complement from the training-range distribution,
and count how often the predicted class survives.  Verification randomness is
derived per instance from (seed, instance id) so results do not depend on
scheduling order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .encoding import (
    Dataset,
    EncodingSpec,
    KIND_ACTIVITY,
    KIND_INDEX,
    KIND_MIDNIGHT,
    KIND_SINCE_FIRST,
    KIND_SINCE_PREV,
    KIND_WEEKDAY,
)
from .errors import ConfigError
from .model import NapModelParams, infer, infer_weights, make_predictor
from .neural import subset_mask
from .posthoc import AnchorConfig, check_verification, estimate_precision, greedy_anchor_search
from .runfiles import map_in_threads
from .selfexplain import FeatureSampler

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


@dataclass
class Explanation:
    """One explanation record; size counts forced and dummy-row features.

    A post-hoc record carries the search's cost, `rounds` and `samples_used`,
    and a timed-out search its best subset so far and that subset's estimate
    in `best_indices` and `best_precision`.  A timeout still has no
    `indices`: it is not an existing explanation.
    """

    instance_id: str
    method: str                       # "selfexplain" | "posthoc"
    indices: tuple[int, ...]
    scores: tuple[float, ...] | None  # per selected index, selfexplain only
    wall_time_s: float
    status: str = "found"
    precision: float | None = None
    sufficient: bool | None = None
    rounds: int | None = None
    samples_used: int | None = None
    best_indices: tuple[int, ...] | None = None
    best_precision: float | None = None

    @property
    def size(self) -> int:
        return len(self.indices)

    def to_record(self) -> dict:
        record = {
            "instance": self.instance_id,
            "method": self.method,
            "status": self.status,
            "size": self.size,
            "indices": list(self.indices),
            "scores": list(self.scores) if self.scores is not None else None,
            "wall_time_s": self.wall_time_s,
            "precision": self.precision,
            "sufficient": self.sufficient,
        }
        if self.rounds is not None:
            record.update(
                rounds=self.rounds,
                samples_used=self.samples_used,
                best_indices=list(self.best_indices) if self.best_indices is not None else None,
                best_precision=self.best_precision,
            )
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Explanation":
        best = record.get("best_indices")
        return cls(
            instance_id=record["instance"],
            method=record["method"],
            indices=tuple(record["indices"]),
            scores=tuple(record["scores"]) if record.get("scores") is not None else None,
            wall_time_s=float(record["wall_time_s"]),
            status=record.get("status", "found"),
            precision=record.get("precision"),
            sufficient=record.get("sufficient"),
            rounds=record.get("rounds"),
            samples_used=record.get("samples_used"),
            best_indices=tuple(best) if best is not None else None,
            best_precision=record.get("best_precision"),
        )


@dataclass
class EvalReport:
    """Aggregate metrics for one method on one instance set."""

    method: str
    n_instances: int
    n_existing: int
    n_sufficient: int
    existing_rate: float
    sufficient_among_existing: float
    sufficient_overall: float
    mean_size: float
    mean_time_s: float
    accuracy: float | None = None
    delta: float = 0.95
    n_samples: int = 100
    seed: int = 0

    def as_rows(self) -> dict:
        return {
            "method": self.method,
            "instances": self.n_instances,
            "existing_pct": round(100.0 * self.existing_rate, 2),
            "sufficient_of_existing_pct": round(100.0 * self.sufficient_among_existing, 2),
            "sufficient_overall_pct": round(100.0 * self.sufficient_overall, 2),
            "mean_size": round(self.mean_size, 2),
            "mean_time_s": self.mean_time_s,
            "accuracy": self.accuracy,
            "delta": self.delta,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def instance_rng(seed: int, instance_id: str) -> np.random.Generator:
    """Reproducible per-instance generator, independent of scheduling order."""
    digest = hashlib.sha256(instance_id.encode("utf-8")).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])
    )


def accuracy(params: NapModelParams, dataset: Dataset) -> float:
    """Fraction of instances whose argmax matches the target class."""
    if len(dataset) == 0:
        raise ConfigError("cannot compute accuracy on an empty instance set")
    classes = infer(params, dataset.x, nap_only=True).classes
    return int(np.sum(classes == dataset.y_activity)) / len(dataset)


def verify_sufficiency(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    subset: Iterable[int],
    sampler: FeatureSampler,
    delta: float = 0.95,
    n_samples: int = 100,
    rng: np.random.Generator | None = None,
) -> tuple[bool, float]:
    """Monte-Carlo sufficiency check: estimated precision >= delta."""
    check_verification(delta, n_samples)
    if rng is None:
        rng = np.random.default_rng(0)
    rate = estimate_precision(predict, x_flat, subset, sampler, n_samples, rng)
    return rate >= delta, rate


def explain_selfexplain(
    params: NapModelParams,
    dataset: Dataset,
    spec: EncodingSpec,
    tau: float = 0.5,
    limit: int | None = None,
) -> list[Explanation]:
    """Per-instance explanations: one inference pass plus the subset mask, timed.

    The kernel weights are built once per call, outside the timed region.
    """
    if not params.selfexplain:
        raise ConfigError("checkpoint has no explanation head")
    forced = spec.forced_flat_mask()
    weights = infer_weights(params, dataset.x.dtype)
    n = min(limit, len(dataset)) if limit is not None else len(dataset)
    explanations = []
    for i in range(n):
        x = dataset.x[i : i + 1]
        t0 = time.perf_counter()
        scores = infer(params, x, weights=weights).scores[0]
        subset = np.flatnonzero(subset_mask(scores, tau, forced))
        wall = time.perf_counter() - t0
        explanations.append(
            Explanation(
                instance_id=dataset.ids[i],
                method="selfexplain",
                indices=tuple(int(j) for j in subset),
                scores=tuple(float(s) for s in scores[subset]),
                wall_time_s=wall,
            )
        )
    return explanations


def explain_posthoc(
    params: NapModelParams,
    dataset: Dataset,
    config: AnchorConfig,
    sampler: FeatureSampler,
    limit: int | None = None,
    threads: int = 1,
) -> list[Explanation]:
    """Greedy anchor search per instance; timeouts become records, not errors.

    At most `threads` instances are in flight at once, on the threads of
    `runfiles.map_in_threads`; each search's rounds use the helpers left idle.
    """
    predict = make_predictor(params)
    n = min(limit, len(dataset)) if limit is not None else len(dataset)

    def solve(i: int) -> Explanation:
        rng = instance_rng(config.seed, dataset.ids[i])
        result = greedy_anchor_search(
            predict, dataset.x[i].reshape(-1), config, sampler, rng
        )
        found = result.status == "found"
        return Explanation(
            instance_id=dataset.ids[i],
            method="posthoc",
            indices=result.indices if found else (),
            scores=None,
            wall_time_s=result.wall_time_s,
            status=result.status,
            precision=result.precision if found else None,
            rounds=result.rounds,
            samples_used=result.samples_used,
            best_indices=None if found else result.indices,
            best_precision=None if found else result.precision,
        )

    return map_in_threads(solve, range(n), limit=threads)


def verify_explanations(
    params: NapModelParams,
    dataset: Dataset,
    explanations: Sequence[Explanation],
    sampler: FeatureSampler,
    delta: float = 0.95,
    n_samples: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> list[Explanation]:
    """Return copies with sufficiency flags filled (timeouts stay unverified).

    At most `threads` instances are in flight at once (`runfiles.map_in_threads`).
    """
    check_verification(delta, n_samples)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    predict = make_predictor(params)
    by_id = {iid: i for i, iid in enumerate(dataset.ids)}

    def check(expl: Explanation) -> Explanation:
        if expl.status != "found":
            return replace(expl, sufficient=None)
        try:
            i = by_id[expl.instance_id]
        except KeyError:
            raise ConfigError(
                f"instance {expl.instance_id!r} not present in the dataset"
            ) from None
        ok, rate = verify_sufficiency(
            predict,
            dataset.x[i].reshape(-1),
            expl.indices,
            sampler,
            delta,
            n_samples,
            instance_rng(seed, expl.instance_id),
        )
        return replace(expl, sufficient=ok, precision=rate)

    return map_in_threads(check, explanations, limit=threads)


def summarize(
    explanations: Sequence[Explanation],
    *,
    accuracy: float | None = None,
    delta: float = 0.95,
    n_samples: int = 100,
    seed: int = 0,
) -> EvalReport:
    """Aggregate one method's records; timeouts hit the existing rate only."""
    if not explanations:
        raise ConfigError("cannot summarize an empty explanation list")
    methods = {e.method for e in explanations}
    if len(methods) != 1:
        raise ConfigError(f"mixed methods in one summary: {sorted(methods)}")
    existing = [e for e in explanations if e.status == "found"]
    sufficient = [e for e in existing if e.sufficient]
    n = len(explanations)
    n_exist = len(existing)
    return EvalReport(
        method=methods.pop(),
        n_instances=n,
        n_existing=n_exist,
        n_sufficient=len(sufficient),
        existing_rate=n_exist / n,
        sufficient_among_existing=(len(sufficient) / n_exist) if n_exist else 0.0,
        sufficient_overall=len(sufficient) / n,
        mean_size=float(np.mean([e.size for e in existing])) if existing else 0.0,
        mean_time_s=float(np.mean([e.wall_time_s for e in existing])) if existing else 0.0,
        accuracy=accuracy,
        delta=delta,
        n_samples=n_samples,
        seed=seed,
    )


def _format_value(spec: EncodingSpec, col: int, value: float) -> str:
    kind = spec.column_kind(col)
    if kind == KIND_ACTIVITY:
        return f"{int(round(value))}"
    if kind == KIND_INDEX:
        return f"{int(round(value))}"
    if kind == KIND_SINCE_FIRST:
        return f"{value * spec.mean_since_first:.1f} s"
    if kind == KIND_SINCE_PREV:
        return f"{value * spec.mean_since_prev:.1f} s"
    if kind == KIND_MIDNIGHT:
        return f"{value * 86400.0:.0f} s"
    if kind == KIND_WEEKDAY:
        return _WEEKDAYS[int(round(value * 6.0))]
    raise AssertionError(kind)


def render_explanation(
    explanation: Explanation,
    dataset: Dataset,
    row: int,
    spec: EncodingSpec,
) -> str:
    """Human-readable view of one dataset row, grouped by event; dummy-row features are omitted.

    Selected features carry a '+', excluded ones a '-'.  Omission changes the
    rendering only: the recorded explanation size still counts every index.
    """
    selected = set(explanation.indices)
    x = dataset.x[row]
    first_real = spec.k - dataset.prefix_lengths[row]
    lines = [
        f"instance {explanation.instance_id}  method={explanation.method}  "
        f"size={explanation.size}"
    ]
    hidden = sum(1 for flat in explanation.indices if flat // spec.width < first_real)
    for step in range(first_real, spec.k):
        event_no = step - first_real + 1
        hot = int(np.argmax(x[step, : spec.vocab_size]))
        lines.append(f"event {event_no} ({spec.vocab[hot]}):")
        for col in range(spec.width):
            flat = spec.flatten(step, col)
            mark = "+" if flat in selected else "-"
            value = _format_value(spec, col, float(x[step, col]))
            lines.append(f"  {mark} {spec.feature_name(col)} = {value}")
    if hidden:
        lines.append(f"({hidden} selected dummy-event features not shown)")
    return "\n".join(lines)


def format_report(reports: Sequence[EvalReport], title: str = "evaluation") -> str:
    """Text tables: accuracy, explanation rates, sizes and times per method."""
    if not reports:
        raise ConfigError("no reports to format")
    lines = [f"== {title} ==", ""]
    lines.append(
        f"{'method':<22}{'accuracy':>10}{'existing%':>11}{'suff/exist%':>13}"
        f"{'suff overall%':>15}{'mean size':>11}{'mean time s':>13}"
    )
    for r in reports:
        acc = f"{r.accuracy:.3f}" if r.accuracy is not None else "-"
        lines.append(
            f"{r.method:<22}{acc:>10}{100 * r.existing_rate:>11.2f}"
            f"{100 * r.sufficient_among_existing:>13.2f}"
            f"{100 * r.sufficient_overall:>15.2f}"
            f"{r.mean_size:>11.2f}{r.mean_time_s:>13.5f}"
        )
    first = reports[0]
    lines.append("")
    lines.append(
        f"(verification: delta={first.delta}, samples={first.n_samples}, "
        f"seed={first.seed})"
    )
    return "\n".join(lines)
