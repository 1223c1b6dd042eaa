"""Fixed-shape numeric encoding of case prefixes.

Each prefix becomes a k x (|A|+5) grid, left-padded with all-zero dummy rows.
Per time step the columns are: one-hot activity (0..|A|-1), 1-based event
index (raw, at |A|), time since the first event divided by its training mean
(|A|+1), time since the previous event divided by its training mean (|A|+2),
time since midnight / 86400 (|A|+3), and weekday / 6 with Monday = 0 (|A|+4).
Day boundaries and weekdays use UTC so encodings are machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from .errors import EncodingError
from .eventlog import PrefixRecord

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
        if self.mean_since_first <= 0 or self.mean_since_prev <= 0:
            raise EncodingError("normalizer means must be positive")
        if self.k < 1 or not self.vocab:
            raise EncodingError("need k >= 1 and a nonempty vocabulary")
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

    @property
    def n_classes(self) -> int:
        return self.vocab_size + 1

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
class EncodedInstance:
    """One encoded prefix with its targets and padding bookkeeping."""

    x: np.ndarray  # (k, width) float32
    target_activity: int          # 0..|A|, |A| = end-of-sequence
    target_time_delta: float      # seconds / mean_since_prev
    prefix_length: int
    instance_id: str


@dataclass
class Dataset:
    """Stacked encoded instances ready for batched passes."""

    x: np.ndarray          # (N, k, width) float32
    y_activity: np.ndarray  # (N,) int64
    y_time: np.ndarray      # (N,) float32
    ids: tuple[str, ...]
    prefix_lengths: tuple[int, ...]

    def __len__(self) -> int:
        return self.x.shape[0]


def _event_features(record: PrefixRecord):
    """Yield (since_first_s, since_prev_s, timestamp) for each prefix event."""
    first = record.events[0].timestamp
    prev = first
    for event in record.events:
        yield float(event.timestamp - first), float(event.timestamp - prev), event.timestamp
        prev = event.timestamp


def fit_normalizers(train_prefixes: Sequence[PrefixRecord]) -> tuple[float, float]:
    """Means of the two elapsed-time features over all events of all prefixes.

    A zero mean (e.g. an instantaneous log) falls back to 1.0 so the
    corresponding feature passes through undivided.
    """
    if not train_prefixes:
        raise EncodingError("cannot fit normalizers on an empty prefix set")
    total_first = 0.0
    total_prev = 0.0
    count = 0
    for record in train_prefixes:
        for since_first, since_prev, _ in _event_features(record):
            total_first += since_first
            total_prev += since_prev
            count += 1
    mean_first = total_first / count
    mean_prev = total_prev / count
    return (mean_first if mean_first > 0 else 1.0, mean_prev if mean_prev > 0 else 1.0)


def encode_prefix(record: PrefixRecord, spec: EncodingSpec) -> EncodedInstance:
    """Encode one prefix into the fixed k x width grid (left-padded)."""
    ell = record.length
    if ell > spec.k:
        raise EncodingError(
            f"prefix length {ell} exceeds k={spec.k} for {record.instance_id}"
        )
    grid = np.zeros((spec.k, spec.width), dtype=np.float32)
    base = spec.k - ell
    va = spec.vocab_size
    for j, (since_first, since_prev, stamp) in enumerate(_event_features(record)):
        row = grid[base + j]
        row[spec.activity_index(record.events[j].activity)] = 1.0
        row[va] = j + 1  # raw 1-based event index, deliberately not normalized
        row[va + 1] = since_first / spec.mean_since_first
        row[va + 2] = since_prev / spec.mean_since_prev
        row[va + 3] = (stamp % 86400) / 86400.0
        row[va + 4] = datetime.fromtimestamp(stamp, timezone.utc).weekday() / 6.0
    return EncodedInstance(
        x=grid,
        target_activity=record.target_activity,
        target_time_delta=record.target_delta / spec.mean_since_prev,
        prefix_length=ell,
        instance_id=record.instance_id,
    )


def encode_dataset(records: Iterable[PrefixRecord], spec: EncodingSpec) -> Dataset:
    """Encode and stack prefix records in their given order."""
    instances = [encode_prefix(record, spec) for record in records]
    if not instances:
        return Dataset(
            x=np.zeros((0, spec.k, spec.width), dtype=np.float32),
            y_activity=np.zeros(0, dtype=np.int64),
            y_time=np.zeros(0, dtype=np.float32),
            ids=(),
            prefix_lengths=(),
        )
    return Dataset(
        x=np.stack([inst.x for inst in instances]),
        y_activity=np.array([inst.target_activity for inst in instances], dtype=np.int64),
        y_time=np.array([inst.target_time_delta for inst in instances], dtype=np.float32),
        ids=tuple(inst.instance_id for inst in instances),
        prefix_lengths=tuple(inst.prefix_length for inst in instances),
    )
