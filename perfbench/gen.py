"""Seeded event-log generator with the shape of the Helpdesk ticket log.

The real Helpdesk log cannot be redistributed, so the benchmark runs on a
synthetic stand-in with the same shape:

* 14 activities (the Helpdesk labels) and k = 15, so every prefix encodes to
  15 x (14 + 5) = 285 features;
* a fixed number of cases, and a fixed multiset of case lengths inside each
  part of the chronological split (train, validation, test).  Case start
  times rise strictly with the case number, so ``split_chronological`` always
  cuts the log at the same case numbers, and every seed yields exactly the
  same number of events and of prefixes in every part.  Only the contents
  change with the seed, which keeps the work per run constant.

Learnable structure, so that predictions beat the majority class and
explanations are not trivial:

* every case has a hidden ticket type, revealed by its first activity;
* the middle of a case is a first-order Markov chain over the "work"
  activities whose transitions depend on the ticket type, so the first
  event stays informative for later predictions;
* every case ends with a resolution activity and then ``Closed``, so
  ``Closed`` and the end-of-sequence class are predictable;
* the delay before an event depends on the activity pair (``Wait`` is
  followed by long gaps), so the time features carry signal.

The program under test only ever sees the CSV this module writes.
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ACTIVITIES = (
    "Assign seriousness",
    "Take in charge ticket",
    "Resolve ticket",
    "Closed",
    "Wait",
    "Require upgrade",
    "Insert ticket",
    "Create SW anomaly",
    "Schedule intervention",
    "VERIFIED",
    "RESOLVED",
    "INVALID",
    "DUPLICATE",
    "Resolve SW anomaly",
)
K = 15
COLUMNS = ("CaseID", "ActivityID", "CompleteTimestamp")

# case-length weights for lengths 3..15 (mean ~7.9 events per case)
_LENGTH_WEIGHTS = np.array([9, 12, 13, 12, 11, 10, 8, 7, 5, 4, 3, 3, 3], dtype=float)
_LENGTHS = np.arange(3, K + 1)

# ticket types: (first activity, probability)
_TYPES = (("Assign seriousness", 0.5), ("Insert ticket", 0.3), ("Take in charge ticket", 0.2))
_WORK = ("Take in charge ticket", "Wait", "Require upgrade", "Create SW anomaly",
         "Schedule intervention", "Assign seriousness")
# per ticket type: work-activity transition rows (from -> weights over _WORK)
_TRANSITIONS = (
    {  # assigned first: mostly take in charge / wait loops, some upgrades
        "Assign seriousness": (6, 1, 1, 0, 0, 0),
        "Insert ticket": (5, 1, 0, 0, 0, 1),
        "Take in charge ticket": (0, 5, 3, 0, 1, 0),
        "Wait": (6, 1, 1, 0, 0, 0),
        "Require upgrade": (3, 4, 0, 0, 1, 0),
        "Create SW anomaly": (3, 3, 0, 0, 0, 1),
        "Schedule intervention": (4, 3, 0, 0, 0, 1),
    },
    {  # inserted first: software anomalies
        "Assign seriousness": (2, 1, 0, 5, 0, 0),
        "Insert ticket": (1, 0, 0, 4, 0, 4),
        "Take in charge ticket": (0, 2, 0, 5, 1, 0),
        "Wait": (2, 0, 0, 4, 1, 1),
        "Require upgrade": (2, 2, 0, 3, 0, 0),
        "Create SW anomaly": (3, 4, 1, 0, 0, 0),
        "Schedule intervention": (2, 2, 0, 3, 0, 0),
    },
    {  # taken in charge first: interventions
        "Assign seriousness": (2, 1, 0, 0, 5, 0),
        "Insert ticket": (2, 0, 0, 0, 5, 1),
        "Take in charge ticket": (0, 2, 1, 0, 5, 1),
        "Wait": (3, 0, 0, 0, 4, 1),
        "Require upgrade": (2, 3, 0, 0, 3, 0),
        "Create SW anomaly": (2, 2, 0, 0, 3, 0),
        "Schedule intervention": (2, 4, 1, 0, 0, 1),
    },
)
# resolution before Closed, per ticket type
_RESOLUTIONS = ("Resolve ticket", "Resolve SW anomaly", "VERIFIED", "RESOLVED", "INVALID", "DUPLICATE")
_RESOLUTION_WEIGHTS = ((6, 0, 1, 1, 1, 1), (2, 6, 1, 1, 0, 1), (6, 1, 1, 1, 1, 0))
# median delay (s) before an event, by the activity it follows
_DELAY_AFTER = {"Wait": 3 * 86400.0, "Require upgrade": 86400.0, "Create SW anomaly": 2 * 86400.0,
                "Schedule intervention": 12 * 3600.0}
_DELAY_DEFAULT = 2 * 3600.0
_START = 1_325_376_000  # 2012-01-01T00:00:00Z, the era of the Helpdesk log
_CASE_GAP_S = 1800

# workload log sizes (see README.md for why each was chosen)
FULL_CASES = 2300
SMALL_CASES = 24


def split_sizes(n_cases: int) -> tuple[int, int, int]:
    """(train, validation, test) case counts as ``split_chronological`` cuts them."""
    pool = -(-2 * n_cases // 3)
    val = max(pool // 10, 1)
    return pool - val, val, n_cases - pool


def _allocate(n: int) -> np.ndarray:
    """Largest-remainder allocation of n cases over _LENGTHS, at least one of length K."""
    share = _LENGTH_WEIGHTS / _LENGTH_WEIGHTS.sum() * n
    counts = np.floor(share).astype(int)
    for i in np.argsort(-(share - counts), kind="stable")[: n - counts.sum()]:
        counts[i] += 1
    if counts[-1] == 0:
        counts[-1] = 1
        counts[int(np.argmax(counts))] -= 1
    return counts


def _case_lengths(n_cases: int, rng: np.random.Generator) -> list[int]:
    """Per-part fixed length multisets, shuffled within each part."""
    lengths: list[int] = []
    for part_size in split_sizes(n_cases):
        part = np.repeat(_LENGTHS, _allocate(part_size))
        lengths.extend(int(v) for v in rng.permutation(part))
    return lengths


def _pick(rng: np.random.Generator, labels, weights) -> str:
    w = np.asarray(weights, dtype=float)
    return labels[int(rng.choice(len(labels), p=w / w.sum()))]


def _activities(rng: np.random.Generator, length: int, resolution: str | None) -> list[str]:
    kind = int(rng.choice(len(_TYPES), p=[p for _, p in _TYPES]))
    seq = [_TYPES[kind][0]]
    while len(seq) < length - 2:
        seq.append(_pick(rng, _WORK, _TRANSITIONS[kind][seq[-1]]))
    seq.append(resolution or _pick(rng, _RESOLUTIONS, _RESOLUTION_WEIGHTS[kind]))
    seq.append("Closed")
    return seq


def generate_cases(n_cases: int, seed: int) -> list[list[tuple[str, int]]]:
    """Cases as lists of (activity, epoch seconds); same seed, same cases.

    The first cases take the resolution labels in turn, so that the rare
    ones appear even in a small log.  If a draw still misses an activity,
    the next derived stream is tried, so the returned log always has all 14.
    """
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n_cases, attempt]))
        cases = []
        for i, length in enumerate(_case_lengths(n_cases, rng)):
            stamp = _START + i * _CASE_GAP_S + int(rng.integers(0, _CASE_GAP_S))
            events = []
            forced = _RESOLUTIONS[i] if i < len(_RESOLUTIONS) else None
            for j, activity in enumerate(_activities(rng, length, forced)):
                if j:
                    median = _DELAY_AFTER.get(events[-1][0], _DELAY_DEFAULT)
                    stamp += 1 + int(rng.lognormal(np.log(median), 0.5))
                events.append((activity, stamp))
            cases.append(events)
        if len({a for case in cases for a, _ in case}) == len(ACTIVITIES):
            check_shape(cases, n_cases)
            return cases
    raise RuntimeError(f"no draw covers all {len(ACTIVITIES)} activities")


def check_shape(cases, n_cases: int):
    """Raise if the log drifted from |A| = 14, k = 15 or its fixed size."""
    seen = {a for case in cases for a, _ in case}
    if seen != set(ACTIVITIES):
        raise ValueError(f"generated log has {len(seen)} activities, expected {len(ACTIVITIES)}")
    longest = max(len(case) for case in cases)
    if longest != K:
        raise ValueError(f"generated log has k={longest}, expected {K}")
    if len(cases) != n_cases:
        raise ValueError(f"generated log has {len(cases)} cases, expected {n_cases}")
    starts = [case[0][1] for case in cases]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("case start times must rise strictly with the case number")


def write_csv(cases, path: Path):
    """Write a Helpdesk-style CSV (CaseID, ActivityID, CompleteTimestamp)."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(COLUMNS)
        for i, case in enumerate(cases):
            for activity, stamp in case:
                when = datetime.fromtimestamp(stamp, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
                out.writerow((f"Case {i + 1}", activity, when))
