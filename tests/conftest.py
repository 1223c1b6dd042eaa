"""Shared fixtures: deterministic synthetic event logs and small trained models.

The synthetic generator is a seeded Markov chain over five activities whose
next step depends almost entirely on the previous activity, so small models
can learn it quickly and sufficiency-based explanations have real signal.
The `workers` fixture sets W, the threads `runfiles.map_in_threads` runs on.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from sennap import runfiles
from sennap.encoding import EncodingSpec, encode_dataset, fit_normalizers
from sennap.errors import LogParseError
from sennap.eventlog import Cases, EventLog, Prefixes, generate_prefixes, split_chronological
from sennap.training import TrainConfig, fit

from oracles import Case, Event, PrefixRecord

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
    """The columnar log of ready-made, time-sorted cases (vocabulary in first-appearance order)."""
    if not cases:
        raise LogParseError("event log contains no cases")
    events = [event for case in cases for event in case.events]
    vocabulary: dict[str, int] = {}
    for event in events:
        vocabulary.setdefault(event.activity, len(vocabulary))
    return EventLog(
        case_ids=tuple(case.case_id for case in cases),
        vocabulary=vocabulary,
        k=max(len(case) for case in cases),
        case_count=len(cases),
        event_count=len(events),
        case_start=np.cumsum([0] + [len(case) for case in cases]),
        activity=np.array([vocabulary[event.activity] for event in events], dtype=np.int64),
        stamps=np.array([event.timestamp for event in events], dtype=np.int64),
    )


def all_cases(log: EventLog) -> Cases:
    return Cases(log, np.arange(log.case_count))


def prefixes_of(cases: Sequence[Case], records: Sequence[PrefixRecord]) -> Prefixes:
    """The columnar prefix set of `records`, whose cases are among `cases`."""
    slot = {id(case): i for i, case in enumerate(cases)}
    return Prefixes(
        log=build_log(cases),
        case=np.array([slot[id(r.case)] for r in records], dtype=np.int64),
        length=np.array([r.length for r in records], dtype=np.int64),
        target=np.array([r.target_activity for r in records], dtype=np.int64),
        delta=np.array([r.target_delta for r in records], dtype=np.float64),
    )


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


@pytest.fixture
def workers(monkeypatch):
    """Set W, with a fresh pool of W - 1 helpers, shut down when replaced and after the test.

    It may be called more than once in a test, as a `hypothesis` example
    does.  The process's own pool is left running and restored afterwards.
    """
    replaced = False

    def shut_down():
        if replaced and runfiles._pool is not None:
            runfiles._pool.shutdown(wait=True)

    def use(w: int):
        nonlocal replaced
        shut_down()
        monkeypatch.setattr(runfiles, "thread_workers", lambda: w)
        monkeypatch.setattr(runfiles, "_pool", None)
        monkeypatch.setattr(runfiles, "_idle", 0)
        replaced = True

    yield use
    shut_down()
