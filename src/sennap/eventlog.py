"""Event-log parsing, chronological splitting, and prefix generation, as arrays.

A log is a set of cases; a case is the time-ordered event sequence of one
process instance.  `parse_csv` reads the rows once into per-event columns,
sorted stably by case, then time: case c's events are `case_start[c]:case_start[c + 1]`.
A part of the split is an array of case numbers into the log, and a prefix set
is one array per field.  Everything here is pure and deterministic.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, LogParseError
from .runfiles import read_bytes


@dataclass(frozen=True)
class EventLog:
    case_ids: tuple[str, ...]   # case labels, first-appearance order: case c is case_ids[c]
    vocabulary: dict[str, int]  # activity -> index 0..|A|-1, first-appearance order
    k: int                      # max case length over the log
    case_count: int
    event_count: int
    case_start: np.ndarray      # (C + 1,) int64 offset of each case's first event; E last
    activity: np.ndarray        # (E,) int64 vocabulary index, case after case, in time order
    stamps: np.ndarray          # (E,) int64 epoch seconds, UTC, in the same order


@dataclass(frozen=True)
class Cases:
    log: EventLog
    index: np.ndarray  # (n,) int64 numbers of some of the log's cases, in a given order

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class SplitSpec:
    train: Cases
    validation: Cases
    test: Cases


@dataclass(frozen=True)
class ColumnMap:
    """Logical-to-physical CSV column names."""

    case: str = "case"
    activity: str = "activity"
    timestamp: str = "timestamp"


@dataclass(frozen=True)
class Prefixes:
    """Prediction instances: prefix i is the first `length[i]` events of case `case[i]`.

    `target` is a vocabulary index; the end-of-sequence class sits at index
    len(vocabulary).  `delta` is the raw time in seconds until the next event
    (0.0 for the end-of-sequence target).
    """

    log: EventLog
    case: np.ndarray    # (N,) int64
    length: np.ndarray  # (N,) int64
    target: np.ndarray  # (N,) int64
    delta: np.ndarray   # (N,) float64

    def __len__(self) -> int:
        return len(self.case)

    def instance_ids(self) -> tuple[str, ...]:
        names = self.log.case_ids
        return tuple(f"{names[c]}#{n}" for c, n in zip(self.case.tolist(), self.length.tolist()))


# 9999-12-31T23:59:59Z, the last second `datetime` can hold
MAX_TIMESTAMP = 253_402_300_799
_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)


def _parse_timestamp(raw: str, line_no: int) -> int:
    """Accept integer epoch seconds or ISO-8601 (optional zone, naive = UTC).

    The moment must lie in 1970-01-01T00:00:00Z..9999-12-31T23:59:59Z.
    """
    text = raw.strip()
    if not text:
        raise LogParseError(f"line {line_no}: empty timestamp")
    try:  # `int()` never accepts a `:` or a `T`, so an ISO stamp raises nothing here
        stamp = int(text) if ":" not in text and "T" not in text else None
    except ValueError:
        stamp = None
    if stamp is None:
        try:
            moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise LogParseError(
                f"line {line_no}: timestamp {raw!r} is neither epoch seconds nor ISO-8601"
            ) from None
        epoch = _EPOCH if moment.tzinfo is None else _EPOCH_UTC  # naive = UTC
        stamp = math.floor((moment - epoch).total_seconds())  # as `timestamp()` computes it
    if not 0 <= stamp <= MAX_TIMESTAMP:
        raise LogParseError(
            f"line {line_no}: timestamp {raw!r} is not in "
            "1970-01-01T00:00:00Z..9999-12-31T23:59:59Z"
        )
    return stamp


def parse_csv(
    path: str | Path, columns: ColumnMap | None = None, *, data: bytes | None = None
) -> EventLog:
    """Parse a UTF-8 CSV event log with a header row; a leading BOM is skipped.

    Cases are numbered in first-appearance order, and each case's events are
    sorted by timestamp, stable on ties so file order wins.  A caller that has
    read the file already passes its bytes as `data`; `path` then only names
    the log in errors.
    """
    columns = columns or ColumnMap()
    path = Path(path)
    raw = (read_bytes(path) if data is None else data).removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise LogParseError(f"{path}: line {line_no}: not valid UTF-8") from None
    with io.StringIO(text, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise LogParseError(f"{path}: file is empty") from None
        positions = []
        for logical in ("case", "activity", "timestamp"):
            physical = getattr(columns, logical)
            try:
                positions.append(header.index(physical))
            except ValueError:
                raise ConfigError(
                    f"{path}: required column {physical!r} (for {logical}) "
                    f"not found in header {header}"
                ) from None
        at_case, at_activity, at_stamp = positions
        needed = max(positions)

        case_index: dict[str, int] = {}
        vocabulary: dict[str, int] = {}
        cases, activities, stamps = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= needed:
                raise LogParseError(f"{path}: line {line_no}: too few columns")
            case_id = row[at_case].strip()
            activity = row[at_activity].strip()
            if not case_id:
                raise LogParseError(f"{path}: line {line_no}: empty case id")
            if not activity:
                raise LogParseError(f"{path}: line {line_no}: empty activity")
            stamps.append(_parse_timestamp(row[at_stamp], line_no))
            cases.append(case_index.setdefault(case_id, len(case_index)))
            activities.append(vocabulary.setdefault(activity, len(vocabulary)))

    if not cases:
        raise LogParseError(f"{path}: no event rows found")

    case = np.array(cases, dtype=np.int64)
    stamp = np.array(stamps, dtype=np.int64)
    order = np.lexsort((stamp, case))  # stable: ties keep file order
    counts = np.bincount(case)
    return EventLog(
        case_ids=tuple(case_index),
        vocabulary=vocabulary,
        k=int(counts.max()),
        case_count=len(case_index),
        event_count=len(cases),
        case_start=np.concatenate(([0], np.cumsum(counts))),
        activity=np.array(activities, dtype=np.int64)[order],
        stamps=stamp[order],
    )


def split_chronological(log: EventLog) -> SplitSpec:
    """Deterministic chronological split: ~2/3 train+validation pool, rest test.

    Cases are ordered by first-event timestamp (ties keep parse order).  The
    validation part is the chronologically latest tenth of the pool, at least
    one case.
    """
    n = log.case_count
    if n < 3:
        raise ConfigError(f"need at least 3 cases to split, got {n}")
    ordered = np.argsort(log.stamps[log.case_start[:-1]], kind="stable")
    pool = -(-2 * n // 3)  # ceil(2n/3)
    val_n = max(pool // 10, 1)
    train, validation, test = np.split(ordered, [pool - val_n, pool])
    return SplitSpec(Cases(log, train), Cases(log, validation), Cases(log, test))


def generate_prefixes(
    cases: Cases, vocabulary: dict[str, int], k: int, purpose: str = "train"
) -> Prefixes:
    """Expand cases into prefix instances with next-activity / next-delta targets.

    purpose="train" emits prefixes of length 1..len(case); purpose="eval"
    starts at length 2.  The full-length prefix targets the end-of-sequence
    class (index len(vocabulary)) with a zero time delta.
    """
    if purpose not in ("train", "eval"):
        raise ConfigError(f"unknown prefix purpose {purpose!r}")
    log = cases.log
    first = log.case_start[cases.index]
    sizes = log.case_start[cases.index + 1] - first
    if np.any(sizes > k):
        i = int(np.argmax(sizes > k))
        raise ConfigError(
            f"case {log.case_ids[cases.index[i]]!r} has {sizes[i]} events but k={k}"
        )
    start = 1 if purpose == "train" else 2
    counts = np.maximum(sizes - start + 1, 0)
    ends = np.cumsum(counts)
    length = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - start, counts)
    full = length == np.repeat(sizes, counts)
    nxt = np.where(full, 0, np.repeat(first, counts) + length)  # next event; 0 after a full one
    labels = np.array([vocabulary[label] for label in log.vocabulary], dtype=np.int64)
    return Prefixes(
        log=log,
        case=np.repeat(cases.index, counts),
        length=length,
        target=np.where(full, len(vocabulary), labels[log.activity[nxt]]),
        delta=np.where(full, 0.0, (log.stamps[nxt] - log.stamps[nxt - 1]).astype(np.float64)),
    )
