"""Event-log parsing, chronological splitting, and prefix generation.

A log is a set of cases; a case is the time-ordered event sequence of one
process instance.  Everything here is pure and deterministic: re-parsing the
same file yields identical logs, splits, and prefix sets.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, LogParseError


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    timestamp: int  # epoch seconds, UTC


@dataclass(frozen=True)
class Case:
    case_id: str
    events: tuple[Event, ...]

    def __len__(self) -> int:
        return len(self.events)

    @property
    def first_timestamp(self) -> int:
        return self.events[0].timestamp


@dataclass(frozen=True)
class EventLog:
    cases: tuple[Case, ...]
    vocabulary: dict[str, int]  # activity -> index 0..|A|-1, first-appearance order
    k: int                      # max case length over the log
    case_count: int
    event_count: int


@dataclass(frozen=True)
class SplitSpec:
    train: tuple[Case, ...]
    validation: tuple[Case, ...]
    test: tuple[Case, ...]


@dataclass(frozen=True)
class ColumnMap:
    """Logical-to-physical CSV column names."""

    case: str = "case"
    activity: str = "activity"
    timestamp: str = "timestamp"


@dataclass(frozen=True)
class PrefixRecord:
    """One prediction instance: the first `length` events of a case.

    `target_activity` is a vocabulary index; the end-of-sequence class sits at
    index len(vocabulary).  `target_delta` is the raw time in seconds until the
    next event (0.0 for the end-of-sequence target).
    """

    case: Case
    length: int
    target_activity: int
    target_delta: float

    @property
    def instance_id(self) -> str:
        return f"{self.case.case_id}#{self.length}"

    @property
    def events(self) -> tuple[Event, ...]:
        return self.case.events[: self.length]


def _parse_timestamp(raw: str, line_no: int) -> int:
    """Accept integer epoch seconds or ISO-8601 (optional zone, naive = UTC)."""
    text = raw.strip()
    if not text:
        raise LogParseError(f"line {line_no}: empty timestamp")
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value < 0:
            raise LogParseError(f"line {line_no}: negative epoch timestamp {text!r}")
        return value
    try:
        moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise LogParseError(
            f"line {line_no}: timestamp {raw!r} is neither epoch seconds nor ISO-8601"
        ) from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    stamp = int(moment.timestamp())
    if stamp < 0:
        raise LogParseError(f"line {line_no}: timestamp {raw!r} precedes the epoch")
    return stamp


def parse_csv(path: str | Path, columns: ColumnMap | None = None) -> EventLog:
    """Parse a UTF-8 CSV event log with a header row.

    Events are grouped by case id (cases kept in first-appearance order) and
    sorted by timestamp within each case, stable on ties so file order wins.
    """
    columns = columns or ColumnMap()
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the event log ({exc.strerror})") from None
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
        positions = {}
        for logical, physical in (
            ("case", columns.case),
            ("activity", columns.activity),
            ("timestamp", columns.timestamp),
        ):
            try:
                positions[logical] = header.index(physical)
            except ValueError:
                raise ConfigError(
                    f"{path}: required column {physical!r} (for {logical}) "
                    f"not found in header {header}"
                ) from None
        needed = max(positions.values())

        by_case: dict[str, list[Event]] = {}
        vocabulary: dict[str, int] = {}
        event_count = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= needed:
                raise LogParseError(f"{path}: line {line_no}: too few columns")
            case_id = row[positions["case"]].strip()
            activity = row[positions["activity"]].strip()
            if not case_id:
                raise LogParseError(f"{path}: line {line_no}: empty case id")
            if not activity:
                raise LogParseError(f"{path}: line {line_no}: empty activity")
            stamp = _parse_timestamp(row[positions["timestamp"]], line_no)
            by_case.setdefault(case_id, []).append(Event(case_id, activity, stamp))
            if activity not in vocabulary:
                vocabulary[activity] = len(vocabulary)
            event_count += 1

    if not by_case:
        raise LogParseError(f"{path}: no event rows found")

    cases = tuple(
        Case(case_id, tuple(sorted(events, key=lambda e: e.timestamp)))
        for case_id, events in by_case.items()
    )
    k = max(len(case) for case in cases)
    return EventLog(cases, vocabulary, k, len(cases), event_count)


def split_chronological(log: EventLog) -> SplitSpec:
    """Deterministic chronological split: ~2/3 train+validation pool, rest test.

    Cases are ordered by first-event timestamp (ties keep parse order).  The
    validation part is the chronologically latest tenth of the pool, at least
    one case.
    """
    n = len(log.cases)
    if n < 3:
        raise ConfigError(f"need at least 3 cases to split, got {n}")
    ordered = sorted(log.cases, key=lambda case: case.first_timestamp)
    pool = -(-2 * n // 3)  # ceil(2n/3)
    val_n = max(pool // 10, 1)
    return SplitSpec(
        train=tuple(ordered[: pool - val_n]),
        validation=tuple(ordered[pool - val_n : pool]),
        test=tuple(ordered[pool:]),
    )


def generate_prefixes(
    cases: Iterable[Case],
    vocabulary: dict[str, int],
    k: int,
    purpose: str = "train",
) -> list[PrefixRecord]:
    """Expand cases into prefix instances with next-activity / next-delta targets.

    purpose="train" emits prefixes of length 1..len(case); purpose="eval"
    starts at length 2.  The full-length prefix targets the end-of-sequence
    class (index len(vocabulary)) with a zero time delta.
    """
    if purpose not in ("train", "eval"):
        raise ConfigError(f"unknown prefix purpose {purpose!r}")
    eos = len(vocabulary)
    start = 1 if purpose == "train" else 2
    records = []
    for case in cases:
        length = len(case)
        if length > k:
            raise ConfigError(
                f"case {case.case_id!r} has {length} events but k={k}"
            )
        for ell in range(start, length + 1):
            if ell == length:
                records.append(PrefixRecord(case, ell, eos, 0.0))
            else:
                nxt = case.events[ell]
                delta = float(nxt.timestamp - case.events[ell - 1].timestamp)
                records.append(
                    PrefixRecord(case, ell, vocabulary[nxt.activity], delta)
                )
    return records
