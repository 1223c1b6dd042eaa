"""Fixed-shape numeric encoding of case prefixes.

Each prefix becomes a k x (|A|+5) grid, left-padded with all-zero dummy rows.
Per time step the columns are: one-hot activity (0..|A|-1), 1-based event
index (raw, at |A|), time since the first event divided by its training mean
(|A|+1), time since the previous event divided by its training mean (|A|+2),
time since midnight / 86400 (|A|+3), and weekday / 6 with Monday = 0 (|A|+4).
Day boundaries and weekdays use UTC so encodings are machine-independent.

`encode_dataset` does not walk the prefixes.  It lays out every event that
some prefix covers once, case after case, and computes each event's row in
float64 numpy arithmetic: the weekday from the epoch seconds as
`(stamp // 86400 + 3) % 7`, since 1970-01-01 was a Thursday.  The rows are
cast to float32 once, into a table whose last row is the all-zero padding,
and every left-padded grid is one gather from that table.  `fit_normalizers`
reads the same per-event values and adds them in prefix order, left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EncodingError
from .eventlog import Case, Event, PrefixRecord

EXTRA_FEATURES = 5

# column kinds, in layout order after the one-hot block
KIND_ACTIVITY = "activity"
KIND_INDEX = "event_index"
KIND_SINCE_FIRST = "since_first"
KIND_SINCE_PREV = "since_prev"
KIND_MIDNIGHT = "since_midnight"
KIND_WEEKDAY = "weekday"

_EXTRA_KINDS = (
    KIND_INDEX,
    KIND_SINCE_FIRST,
    KIND_SINCE_PREV,
    KIND_MIDNIGHT,
    KIND_WEEKDAY,
)


@dataclass(frozen=True)
class EncodingSpec:
    """Feature layout plus the training-data normalization constants."""

    vocab: tuple[str, ...]
    k: int
    mean_since_first: float
    mean_since_prev: float

    def __post_init__(self):
        means = (self.mean_since_first, self.mean_since_prev)
        if not all(math.isfinite(mean) and mean > 0 for mean in means):
            raise EncodingError(f"normalizer means must be positive and finite, got {means}")
        if self.k < 1 or not self.vocab:
            raise EncodingError("need k >= 1 and a nonempty vocabulary")
        if len(set(self.vocab)) != len(self.vocab):
            raise EncodingError(f"vocabulary labels must be distinct, got {list(self.vocab)}")
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.vocab)}
        )

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def width(self) -> int:
        return self.vocab_size + EXTRA_FEATURES

    @property
    def n_features(self) -> int:
        return self.k * self.width

    def activity_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise EncodingError(f"activity {label!r} not in vocabulary") from None

    def flatten(self, row: int, col: int) -> int:
        return row * self.width + col

    def column_kind(self, col: int) -> str:
        if col < self.vocab_size:
            return KIND_ACTIVITY
        return _EXTRA_KINDS[col - self.vocab_size]

    def feature_name(self, col: int) -> str:
        if col < self.vocab_size:
            return f"activity[{self.vocab[col]}]"
        return _EXTRA_KINDS[col - self.vocab_size]

    def forced_flat_mask(self) -> np.ndarray:
        """Boolean (n_features,) mask of the event-index column in every row."""
        mask = np.zeros(self.n_features, dtype=bool)
        mask[self.vocab_size :: self.width] = True
        return mask

    def to_metadata(self) -> dict[str, str]:
        import json

        return {
            "vocab": json.dumps(list(self.vocab)),
            "k": str(self.k),
            "m": str(EXTRA_FEATURES),
            "mean_since_first": repr(self.mean_since_first),
            "mean_since_prev": repr(self.mean_since_prev),
        }

    @classmethod
    def from_metadata(cls, meta: dict[str, str]) -> "EncodingSpec":
        import json

        if int(meta.get("m", EXTRA_FEATURES)) != EXTRA_FEATURES:
            raise EncodingError(f"layout is fixed at {EXTRA_FEATURES} extra features")
        return cls(
            vocab=tuple(json.loads(meta["vocab"])),
            k=int(meta["k"]),
            mean_since_first=float(meta["mean_since_first"]),
            mean_since_prev=float(meta["mean_since_prev"]),
        )


@dataclass
class Dataset:
    """Stacked encoded prefixes ready for batched passes."""

    x: np.ndarray          # (N, k, width) float32
    y_activity: np.ndarray  # (N,) int64
    y_time: np.ndarray      # (N,) float32
    ids: tuple[str, ...]
    prefix_lengths: tuple[int, ...]

    def __len__(self) -> int:
        return self.x.shape[0]


class _PrefixEvents(NamedTuple):
    """The events a set of prefix records covers, laid out case after case."""

    events: list[Event]      # (E,) each case's events up to its longest prefix
    position: np.ndarray     # (E,) int64, 0-based index of the event in its case
    stamps: np.ndarray       # (E,) int64 epoch seconds
    since_first: np.ndarray  # (E,) float64 seconds since the case's first event
    since_prev: np.ndarray   # (E,) float64 seconds since the case's previous event
    rows: np.ndarray         # (N, k) event of each left-padded prefix step; E pads


def _prefix_events(records: Sequence[PrefixRecord], k: int) -> _PrefixEvents:
    """Each event that some record's prefix covers, once, and where each prefix reads it.

    Events after the longest prefix of their case are not read.
    """
    slot_of: dict[int, int] = {}  # id(case) -> its index in `cases`
    cases: list[Case] = []
    covered: list[int] = []
    slots = []
    for record in records:
        if record.length > k:
            raise EncodingError(
                f"prefix length {record.length} exceeds k={k} for {record.instance_id}"
            )
        slot = slot_of.setdefault(id(record.case), len(cases))
        if slot == len(cases):
            cases.append(record.case)
            covered.append(record.length)
        elif record.length > covered[slot]:
            covered[slot] = record.length
        slots.append(slot)
    events = [event for case, n in zip(cases, covered) for event in case.events[:n]]
    n_events = len(events)
    counts = np.array(covered, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    case_start = np.repeat(starts, counts)
    position = np.arange(n_events) - case_start
    previous = np.arange(n_events) - (position > 0)  # a case's first event is its own previous
    stamps = np.fromiter((event.timestamp for event in events), np.int64, n_events)
    lengths = np.array([record.length for record in records], dtype=np.int64)
    step = np.arange(k) - (k - lengths)[:, None]  # negative on the padding
    first_row = starts[np.array(slots, dtype=np.intp)]
    return _PrefixEvents(
        events=events,
        position=position,
        stamps=stamps,
        since_first=(stamps - stamps[case_start]).astype(np.float64),
        since_prev=(stamps - stamps[previous]).astype(np.float64),
        rows=np.where(step >= 0, first_row[:, None] + step, n_events),
    )


def fit_normalizers(train_prefixes: Sequence[PrefixRecord]) -> tuple[float, float]:
    """Means of the two elapsed-time features over all events of all prefixes.

    A zero mean (e.g. an instantaneous log) falls back to 1.0 so the
    corresponding feature passes through undivided.
    """
    if not train_prefixes:
        raise EncodingError("cannot fit normalizers on an empty prefix set")
    events = _prefix_events(train_prefixes, max(record.length for record in train_prefixes))
    rows = events.rows[events.rows < len(events.events)]  # prefix after prefix, event after event
    # cumsum adds left to right, so the means keep their bits; np.sum adds pairwise
    mean_first = float(np.cumsum(events.since_first[rows])[-1] / rows.size)
    mean_prev = float(np.cumsum(events.since_prev[rows])[-1] / rows.size)
    return (mean_first if mean_first > 0 else 1.0, mean_prev if mean_prev > 0 else 1.0)


def encode_dataset(records: Iterable[PrefixRecord], spec: EncodingSpec) -> Dataset:
    """Encode and stack prefix records in their given order."""
    records = list(records)
    events = _prefix_events(records, spec.k)
    n_events = len(events.events)
    activity = np.fromiter(
        (spec.activity_index(event.activity) for event in events.events), np.intp, n_events
    )
    va = spec.vocab_size
    table = np.zeros((n_events + 1, spec.width))  # the last row is the padding
    table[np.arange(n_events), activity] = 1.0
    table[:n_events, va] = events.position + 1  # raw 1-based index, deliberately not normalized
    table[:n_events, va + 1] = events.since_first / spec.mean_since_first
    table[:n_events, va + 2] = events.since_prev / spec.mean_since_prev
    table[:n_events, va + 3] = events.stamps % 86400 / 86400.0
    table[:n_events, va + 4] = (events.stamps // 86400 + 3) % 7 / 6.0
    delta = np.array([record.target_delta for record in records], dtype=np.float64)
    return Dataset(
        x=table.astype(np.float32)[events.rows],
        y_activity=np.array([record.target_activity for record in records], dtype=np.int64),
        y_time=(delta / spec.mean_since_prev).astype(np.float32),
        ids=tuple(record.instance_id for record in records),
        prefix_lengths=tuple(record.length for record in records),
    )
