"""Fixed-shape numeric encoding of case prefixes.

Each prefix becomes a k x (|A|+5) grid, left-padded with all-zero dummy rows.
Per time step the columns are: one-hot activity (0..|A|-1), 1-based event
index (raw, at |A|), time since the first event divided by its training mean
(|A|+1), time since the previous event divided by its training mean (|A|+2),
time since midnight / 86400 (|A|+3), and weekday / 6 with Monday = 0 (|A|+4).
Day boundaries and weekdays use UTC so encodings are machine-independent.

`encode_dataset` does not walk the prefixes.  It computes the row of every
event of the log once, in float64 numpy arithmetic on the log's columns: the
weekday from the epoch seconds as `(stamp // 86400 + 3) % 7`, since
1970-01-01 was a Thursday.  The rows are
cast to float32 once, into a table whose last row is the all-zero padding,
and every left-padded grid is one gather from that table, at the log events
`_prefix_rows` lists for it.  `fit_normalizers` reads the same per-event
values at the same rows and adds them in prefix order, left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EncodingError
from .eventlog import EventLog, Prefixes

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


def _prefix_rows(prefixes: Prefixes, k: int) -> np.ndarray:
    """(N, k) log event at each left-padded prefix step; event_count on the padding."""
    length = prefixes.length
    if np.any(length > k):
        i = int(np.argmax(length > k))
        raise EncodingError(
            f"prefix length {length[i]} exceeds k={k} for {prefixes.instance_ids()[i]}"
        )
    step = np.arange(k) - (k - length)[:, None]  # negative on the padding
    first = prefixes.log.case_start[prefixes.case]
    return np.where(step >= 0, first[:, None] + step, prefixes.log.event_count)


def _elapsed(log: EventLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(position, since_first, since_prev) of every event of the log.

    The 0-based index of the event in its case, and the float64 seconds since
    its case's first event and since its previous one.
    """
    counts = np.diff(log.case_start)
    case_start = np.repeat(log.case_start[:-1], counts)
    position = np.arange(log.event_count) - case_start
    previous = np.arange(log.event_count) - (position > 0)  # a first event is its own previous
    stamps = log.stamps
    return (
        position,
        (stamps - stamps[case_start]).astype(np.float64),
        (stamps - stamps[previous]).astype(np.float64),
    )


def fit_normalizers(train_prefixes: Prefixes) -> tuple[float, float]:
    """Means of the two elapsed-time features over all events of all prefixes.

    A zero mean (e.g. an instantaneous log) falls back to 1.0 so the
    corresponding feature passes through undivided.
    """
    if not len(train_prefixes):
        raise EncodingError("cannot fit normalizers on an empty prefix set")
    rows = _prefix_rows(train_prefixes, int(train_prefixes.length.max()))
    rows = rows[rows < train_prefixes.log.event_count]  # prefix after prefix, event after event
    _, since_first, since_prev = _elapsed(train_prefixes.log)
    # cumsum adds left to right, so the means keep their bits; np.sum adds pairwise
    mean_first = float(np.cumsum(since_first[rows])[-1] / rows.size)
    mean_prev = float(np.cumsum(since_prev[rows])[-1] / rows.size)
    return (mean_first if mean_first > 0 else 1.0, mean_prev if mean_prev > 0 else 1.0)


def encode_dataset(prefixes: Prefixes, spec: EncodingSpec) -> Dataset:
    """Encode and stack prefixes in their given order."""
    log = prefixes.log
    rows = _prefix_rows(prefixes, spec.k)
    n_events = log.event_count
    labels = np.array([spec._index.get(label, -1) for label in log.vocabulary], dtype=np.intp)
    activity = labels[log.activity]  # the spec's index of each event's activity, -1 if none
    if np.any(labels < 0):  # only an event that some prefix reads must be in the vocabulary
        read = rows[rows < n_events]
        missing = read[activity[read] < 0]
        if missing.size:
            spec.activity_index(tuple(log.vocabulary)[log.activity[missing[0]]])
    position, since_first, since_prev = _elapsed(log)
    va = spec.vocab_size
    table = np.zeros((n_events + 1, spec.width))  # the last row is the padding
    known = np.flatnonzero(activity >= 0)
    table[known, activity[known]] = 1.0
    table[:n_events, va] = position + 1  # raw 1-based index, deliberately not normalized
    table[:n_events, va + 1] = since_first / spec.mean_since_first
    table[:n_events, va + 2] = since_prev / spec.mean_since_prev
    table[:n_events, va + 3] = log.stamps % 86400 / 86400.0
    table[:n_events, va + 4] = (log.stamps // 86400 + 3) % 7 / 6.0
    return Dataset(
        x=table.astype(np.float32)[rows],
        y_activity=prefixes.target.astype(np.int64),
        y_time=(prefixes.delta / spec.mean_since_prev).astype(np.float32),
        ids=prefixes.instance_ids(),
        prefix_lengths=tuple(prefixes.length.tolist()),
    )
