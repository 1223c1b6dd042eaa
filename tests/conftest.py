"""Shared fixtures: deterministic synthetic event logs and small trained models.

The synthetic generator is a seeded Markov chain over five activities whose
next step depends almost entirely on the previous activity, so small models
can learn it quickly and sufficiency-based explanations have real signal.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from sennap.encoding import EncodingSpec, encode_dataset, fit_normalizers
from sennap.errors import LogParseError
from sennap.eventlog import Case, Event, EventLog, generate_prefixes, split_chronological
from sennap.training import TrainConfig, fit

# transition table: activity -> ((successor, probability), ...); None = case end
_TRANSITIONS = {
    "start": (("a", 1.0),),
    "a": (("b", 0.85), ("c", 0.15)),
    "b": (("d", 1.0),),
    "c": (("e", 1.0),),
    "d": (("e", 0.6), (None, 0.4)),
    "e": ((None, 1.0),),
}


def _next_activity(rng: np.random.Generator, current: str) -> str | None:
    options = _TRANSITIONS[current]
    labels = [label for label, _ in options]
    probs = [p for _, p in options]
    return labels[rng.choice(len(labels), p=probs)]


def make_markov_cases(n_cases: int, seed: int = 11) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    start_ts = 1_600_000_000
    for i in range(n_cases):
        case_id = f"case{i:04d}"
        ts = start_ts + i * 7200
        events = []
        current = "start"
        while True:
            nxt = _next_activity(rng, current)
            if nxt is None:
                break
            ts += int(rng.integers(300, 3600))
            events.append(Event(case_id, nxt, ts))
            current = nxt
        cases.append(Case(case_id, tuple(events)))
    return cases


def build_log(cases: Sequence[Case]) -> EventLog:
    """Assemble an EventLog from ready-made cases (vocabulary in first-appearance order)."""
    if not cases:
        raise LogParseError("event log contains no cases")
    vocabulary: dict[str, int] = {}
    event_count = 0
    for case in cases:
        for event in case.events:
            if event.activity not in vocabulary:
                vocabulary[event.activity] = len(vocabulary)
            event_count += 1
    k = max(len(case) for case in cases)
    return EventLog(tuple(cases), vocabulary, k, len(cases), event_count)


def write_markov_csv(path: Path, n_cases: int, seed: int = 11):
    """CSV in file order interleaving nothing (cases sequential, events sorted)."""
    cases = make_markov_cases(n_cases, seed)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case", "activity", "timestamp"])
        for case in cases:
            for event in case.events:
                writer.writerow([event.case_id, event.activity, event.timestamp])
    return cases


@pytest.fixture(scope="session")
def toy_data():
    """Encoded toy log: (spec, train, validation, test_eval) datasets."""
    log = build_log(make_markov_cases(150))
    split = split_chronological(log)
    train_prefixes = generate_prefixes(split.train, log.vocabulary, log.k, "train")
    mean_first, mean_prev = fit_normalizers(train_prefixes)
    spec = EncodingSpec(
        vocab=tuple(log.vocabulary),
        k=log.k,
        mean_since_first=mean_first,
        mean_since_prev=mean_prev,
    )
    train = encode_dataset(train_prefixes, spec)
    val = encode_dataset(
        generate_prefixes(split.validation, log.vocabulary, log.k, "train"), spec
    )
    test_eval = encode_dataset(
        generate_prefixes(split.test, log.vocabulary, log.k, "eval"), spec
    )
    return spec, train, val, test_eval


@pytest.fixture(scope="session")
def baseline_ckpt(toy_data):
    spec, train, val, _ = toy_data
    config = TrainConfig(
        mode="baseline", learning_rate=0.002, batch_size=64,
        max_epochs=20, patience=8, seed=3,
    )
    return fit(train, val, spec, config)


@pytest.fixture(scope="session")
def senn_ckpt(toy_data):
    spec, train, val, _ = toy_data
    config = TrainConfig(
        mode="selfexplain", learning_rate=0.002, xi=1e-4, lam=1.0,
        batch_size=64, max_epochs=20, patience=8, seed=3,
    )
    return fit(train, val, spec, config)
