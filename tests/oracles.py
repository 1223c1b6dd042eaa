"""Reference implementations the numeric-core tests compare the package against.

`lstm_cell_step` is the exp-based single-instance LSTM cell that the fused
tanh kernels must match; `max_rel_error` checks analytic gradients against
central finite differences; `parse_csv_loop`, `split_chronological_loop`
and `generate_prefixes_loop` are the per-event path from CSV bytes to prefix
records, one `Event`, `Case` and `PrefixRecord` object each, whose results
the columns of `sennap.eventlog` must give back (`cases_of` reads a columnar
log back as `Case` objects); `fit_normalizers_loop` and `encode_dataset_loop`
encode one prefix record at a time, event by event, which the gathers in
`sennap.encoding` must match bit for bit; `round_estimates_per_event_row` is
the post-hoc round that scores one event row's candidates per `predict` call,
which the per-draw calls of `sennap.posthoc` must match bit for bit;
`kept_counts_loop` counts kept predictions one candidate per `predict` call,
which `sennap.posthoc.kept_counts`, in groups of draws on several threads,
must match;
`lstm_layer_loop` is the training LSTM with its own time-major forward loop,
which `sennap.neural.lstm_layer` on the prefix-tree kernel must match bit for
bit, forward and backward; `backward_keeping_tape` is the reverse sweep that
leaves every node's grad and closure in place, whose parameter grads
`sennap.neural.backward`, which frees the tape as it walks it, must match bit
for bit; `lstm_prefix_forward_allocating` and `infer_allocating` are the
inference kernel and pass that allocate every buffer per call, hold the
(N, H) cell state and keep the shared stack's output through the branch
LSTMs, which `sennap.neural.lstm_prefix_forward` on its workspace and
`sennap.model.infer` must match bit for bit.
"""

from __future__ import annotations

import bisect
import codecs
import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from sennap.encoding import Dataset, EncodingSpec
from sennap.errors import ConfigError, EncodingError, LogParseError
from sennap.eventlog import MAX_TIMESTAMP, ColumnMap, EventLog
from sennap.model import INFER_CHUNK, Inference, NapModelParams, infer_weights, prefix_tree
from sennap.neural import (
    PROJECTION_ROWS,
    LSTMLayerParams,
    Var,
    backward,
    batch_norm_infer,
    expit,
    half_scaled,
    lstm_cell_update,
)
from sennap.selfexplain import FeatureSampler


def lstm_cell_step(
    params: LSTMLayerParams,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    x_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One plain-numpy cell update for a single instance (reference path)."""
    h_prev = np.asarray(h_prev)
    c_prev = np.asarray(c_prev)
    x_t = np.asarray(x_t)
    if h_prev.shape != (params.hidden_size,) or c_prev.shape != (params.hidden_size,):
        raise ValueError(
            f"state shapes {h_prev.shape}/{c_prev.shape} do not match H={params.hidden_size}"
        )
    if x_t.shape != (params.input_size,):
        raise ValueError(f"input shape {x_t.shape} does not match D={params.input_size}")
    H = params.hidden_size
    z = np.concatenate([h_prev, x_t]) @ params.W.value + params.b.value
    f = expit(z[:H])
    i = expit(z[H : 2 * H])
    c_bar = np.tanh(z[2 * H : 3 * H])
    c = f * c_prev + i * c_bar
    o = expit(z[3 * H :])
    h = o * np.tanh(c)
    return h, c


def max_rel_error(
    build_loss: Callable[[], Var],
    wrt: Sequence[Var],
    rng: np.random.Generator,
    entries_per_var: int = 4,
    eps: float = 1e-4,
) -> float:
    """Worst relative error of analytic grads vs central finite differences.

    `build_loss` must rebuild the (deterministic) graph from the current
    parameter values on every call.  Checks a random sample of entries per
    parameter; parameters are restored afterwards.
    """
    loss = build_loss()
    backward(loss)
    analytic = []
    for p in wrt:
        if p.grad is None:
            analytic.append(np.zeros_like(p.value))
        else:
            analytic.append(p.grad.copy())
        p.grad = None

    worst = 0.0
    for p, grad in zip(wrt, analytic):
        flat = p.value.reshape(-1)
        count = min(entries_per_var, flat.size)
        picks = rng.choice(flat.size, size=count, replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float(build_loss().value)
            flat[idx] = orig - eps
            lo = float(build_loss().value)
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = float(grad.reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst


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
class LogLoop:
    cases: tuple[Case, ...]     # first-appearance order
    vocabulary: dict[str, int]  # activity -> index, first-appearance order
    k: int
    case_count: int
    event_count: int


@dataclass(frozen=True)
class PrefixRecord:
    """The first `length` events of a case, with its next-activity and next-delta targets."""

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


def cases_of(log: EventLog) -> tuple[Case, ...]:
    """A columnar log's cases as `Case` objects, in case-number order."""
    labels = tuple(log.vocabulary)
    bounds = log.case_start.tolist()
    return tuple(
        Case(case_id, tuple(
            Event(case_id, labels[a], t)
            for a, t in zip(log.activity[lo:hi].tolist(), log.stamps[lo:hi].tolist())
        ))
        for case_id, lo, hi in zip(log.case_ids, bounds, bounds[1:])
    )


def _parse_timestamp_loop(raw: str, line_no: int) -> int:
    text = raw.strip()
    if not text:
        raise LogParseError(f"line {line_no}: empty timestamp")
    try:
        stamp = int(text)
    except ValueError:
        try:
            moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise LogParseError(
                f"line {line_no}: timestamp {raw!r} is neither epoch seconds nor ISO-8601"
            ) from None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        stamp = math.floor(moment.timestamp())
    if not 0 <= stamp <= MAX_TIMESTAMP:
        raise LogParseError(
            f"line {line_no}: timestamp {raw!r} is not in "
            "1970-01-01T00:00:00Z..9999-12-31T23:59:59Z"
        )
    return stamp


def parse_csv_loop(path: str | Path, columns: ColumnMap | None = None, *, data: bytes) -> LogLoop:
    """`eventlog.parse_csv`, one `Event` per row, grouped and sorted per case in Python."""
    columns = columns or ColumnMap()
    path = Path(path)
    raw = data.removeprefix(codecs.BOM_UTF8)
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
        for logical in ("case", "activity", "timestamp"):
            physical = getattr(columns, logical)
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
            stamp = _parse_timestamp_loop(row[positions["timestamp"]], line_no)
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
    return LogLoop(cases, vocabulary, k, len(cases), event_count)


def split_chronological_loop(log: LogLoop) -> tuple[tuple[Case, ...], ...]:
    """`eventlog.split_chronological` as (train, validation, test) tuples of cases."""
    n = len(log.cases)
    if n < 3:
        raise ConfigError(f"need at least 3 cases to split, got {n}")
    ordered = sorted(log.cases, key=lambda case: case.first_timestamp)
    pool = -(-2 * n // 3)
    val_n = max(pool // 10, 1)
    return (
        tuple(ordered[: pool - val_n]), tuple(ordered[pool - val_n : pool]), tuple(ordered[pool:])
    )


def generate_prefixes_loop(
    cases: Iterable[Case], vocabulary: dict[str, int], k: int, purpose: str = "train"
) -> list[PrefixRecord]:
    """`eventlog.generate_prefixes`, one `PrefixRecord` per prefix."""
    if purpose not in ("train", "eval"):
        raise ConfigError(f"unknown prefix purpose {purpose!r}")
    eos = len(vocabulary)
    start = 1 if purpose == "train" else 2
    records = []
    for case in cases:
        length = len(case)
        if length > k:
            raise ConfigError(f"case {case.case_id!r} has {length} events but k={k}")
        for ell in range(start, length + 1):
            if ell == length:
                records.append(PrefixRecord(case, ell, eos, 0.0))
            else:
                nxt = case.events[ell]
                delta = float(nxt.timestamp - case.events[ell - 1].timestamp)
                records.append(PrefixRecord(case, ell, vocabulary[nxt.activity], delta))
    return records


def _event_features(record: PrefixRecord):
    """Yield (since_first_s, since_prev_s, timestamp) for each prefix event."""
    first = record.events[0].timestamp
    prev = first
    for event in record.events:
        yield float(event.timestamp - first), float(event.timestamp - prev), event.timestamp
        prev = event.timestamp


def fit_normalizers_loop(train_prefixes: Sequence[PrefixRecord]) -> tuple[float, float]:
    """`encoding.fit_normalizers`, summing event by event in Python."""
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


def _encode_grid(record: PrefixRecord, spec: EncodingSpec) -> np.ndarray:
    """One prefix's left-padded k x width grid, filled row by row."""
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
        row[va] = j + 1
        row[va + 1] = since_first / spec.mean_since_first
        row[va + 2] = since_prev / spec.mean_since_prev
        row[va + 3] = (stamp % 86400) / 86400.0
        row[va + 4] = datetime.fromtimestamp(stamp, timezone.utc).weekday() / 6.0
    return grid


def encode_dataset_loop(records: Sequence[PrefixRecord], spec: EncodingSpec) -> Dataset:
    """`encoding.encode_dataset`, one prefix and one event at a time."""
    return Dataset(
        x=np.stack([_encode_grid(record, spec) for record in records])
        if records else np.zeros((0, spec.k, spec.width), dtype=np.float32),
        y_activity=np.array([r.target_activity for r in records], dtype=np.int64),
        y_time=np.array(
            [r.target_delta / spec.mean_since_prev for r in records], dtype=np.float32
        ),
        ids=tuple(r.instance_id for r in records),
        prefix_lengths=tuple(r.length for r in records),
    )


def round_estimates_per_event_row(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    subset: np.ndarray,
    base: np.ndarray,
    target: int,
    sampler: FeatureSampler,
) -> np.ndarray:
    """One greedy round's estimates, one `predict` call per event row of candidates.

    Candidate j's rows are the (S, n) `base` rows with column j set to x_j,
    base-major within a call; taken features estimate at -1.  An event row
    holds one event-index feature; without any, the whole vector is one row.
    """
    S, n = base.shape
    rows = int(np.count_nonzero(sampler.forced_mask))
    row_width = n // rows if rows else n
    free = np.flatnonzero(~subset)
    estimates = np.full(n, -1.0)
    for columns in np.split(free, np.flatnonzero(np.diff(free // row_width)) + 1):
        z = np.repeat(base[:, None, :], len(columns), axis=1)
        z[:, np.arange(len(columns)), columns] = x_flat[columns]
        kept = predict(z.reshape(-1, n)).reshape(S, len(columns)) == target
        estimates[columns] = kept.mean(axis=0)
    return estimates


def kept_counts_loop(
    predict: Callable[[np.ndarray], np.ndarray],
    x_flat: np.ndarray,
    base: np.ndarray,
    target: int,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Kept counts one candidate at a time: its S rows in one `predict` call.

    Candidate j's rows are the `base` rows with column j set to x_j; without
    `columns`, the one candidate is `base` itself.
    """
    if columns is None:
        return np.array([np.count_nonzero(predict(base) == target)])
    counts = []
    for j in columns:
        z = base.copy()
        z[:, j] = x_flat[j]
        counts.append(np.count_nonzero(predict(z) == target))
    return np.array(counts)


def lstm_layer_loop(x: Var, params: LSTMLayerParams) -> Var:
    """Full-sequence LSTM node, the training kernel: input (B, T, D) -> output (B, T, H).

    The forward runs time-major from h_0 = c_0 = 0.  The input-side
    pre-activations of every step are one matmul; only the recurrence runs
    per step, and the activated gates, cell states and their tanh stay for
    BPTT.  The weight gradients are single whole-sequence matmuls.  Backward
    uses the unscaled weights.
    """
    xv = x.value
    if xv.ndim != 3 or xv.shape[2] != params.input_size:
        raise ValueError(
            f"lstm_layer expects (B, T, {params.input_size}), got {xv.shape}"
        )
    B, T, D = xv.shape
    H = params.hidden_size
    dtype = xv.dtype
    xs = np.ascontiguousarray(xv.transpose(1, 0, 2))
    w_half, b_half = half_scaled(params, dtype)
    w_h = w_half[:H]

    # (T, B, 4H): half-scaled input-side pre-activations, activated in place
    gates = (xs.reshape(T * B, D) @ w_half[H:] + b_half).reshape(T, B, 4 * H)
    # h[0] = c[0] = 0, so h[1:] is the output sequence and h[:-1] the previous states
    h = np.zeros((T + 1, B, H), dtype=dtype)
    c = np.zeros((T + 1, B, H), dtype=dtype)
    tanh_c = np.empty((T, B, H), dtype=dtype)
    rec = np.empty((B, 4 * H), dtype=dtype)
    ic = np.empty((B, H), dtype=dtype)
    for t in range(T):
        step = gates[t]
        if t:
            np.matmul(h[t], w_h, out=rec)
            step += rec
        lstm_cell_update(step, c[t], c[t + 1], tanh_c[t], h[t + 1], ic)
    out = h[1:].transpose(1, 0, 2)

    def back(g):
        # (4H, H+D) row-major; the layout note is in `half_scaled`
        w_t = np.ascontiguousarray(params.W.value.T, dtype=dtype)
        d_raw_all = np.empty((T, B, 4 * H), dtype=dtype)
        dh_next = np.zeros((B, H), dtype=dtype)
        dc_next = np.zeros((B, H), dtype=dtype)
        for t in range(T - 1, -1, -1):
            f = gates[t, :, :H]
            i = gates[t, :, H : 2 * H]
            c_bar = gates[t, :, 2 * H : 3 * H]
            o = gates[t, :, 3 * H :]
            tanh_ct = tanh_c[t]

            dh = g[:, t, :] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_ct * tanh_ct)
            d_raw = d_raw_all[t]
            d_raw[:, :H] = (dc * c[t]) * (f * (1.0 - f))
            d_raw[:, H : 2 * H] = (dc * c_bar) * (i * (1.0 - i))
            d_raw[:, 2 * H : 3 * H] = (dc * i) * (1.0 - c_bar * c_bar)
            d_raw[:, 3 * H :] = (dh * tanh_ct) * (o * (1.0 - o))
            dc_next = dc * f
            dh_next = d_raw @ w_t[:, :H]

        d_flat = d_raw_all.reshape(T * B, 4 * H)
        # the h-side and x-side weight gradients, one matmul each
        d_w = np.empty((H + D, 4 * H), dtype=dtype)
        np.matmul(h[:-1].reshape(T * B, H).T, d_flat, out=d_w[:H])
        np.matmul(xs.reshape(T * B, D).T, d_flat, out=d_w[H:])
        params.W.accumulate(d_w)
        params.b.accumulate(d_flat.sum(axis=0))
        if x.requires_grad:
            dx = (d_flat @ w_t[:, H:]).reshape(T, B, D)
            x.accumulate(dx.transpose(1, 0, 2))

    return Var(out, parents=(x, params.W, params.b), backward=back)


def backward_keeping_tape(root: Var):
    """Reverse sweep from a scalar root that keeps every node's grad and closure."""
    if root.value.size != 1:
        raise ValueError(f"backward needs a scalar root, got shape {root.shape}")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def lstm_prefix_forward_allocating(
    inputs: np.ndarray,
    offsets: Sequence[int],
    parents: Sequence[np.ndarray | None],
    weights: tuple[np.ndarray, np.ndarray],
    keep: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Tape-free LSTM over a prefix tree: one node per distinct input prefix.

    The nodes are ordered by step: step t's nodes are `offsets[t]:offsets[t+1]`,
    and each continues the (h, c) of the step t-1 node that `parents[t]` names
    (None at step 0, and where step t's nodes continue step t-1's in order).
    `inputs` holds each node's (D,) input row and `weights` comes from
    `half_scaled`.  Returns the (N, H) hidden states.  `keep`, passed only by
    `lstm_layer`, is the node-indexed storage BPTT reads, (N, H) `h` and `c`
    and (N, 4H) activated gates; all nodes then project at once.  The tanh of
    each step's cell state is scratch on both paths, and BPTT recomputes it.
    """
    w_half, b_half = weights
    H = w_half.shape[1] // 4
    dtype = inputs.dtype
    w_h, w_x = w_half[:H], w_half[H:]
    steps = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    widest = max(step.stop - step.start for step in steps)
    if keep is None:
        h = np.empty((inputs.shape[0], H), dtype=dtype)
        c = np.empty_like(h)
        projected = np.empty((max(widest, min(len(inputs), PROJECTION_ROWS)), 4 * H), dtype=dtype)
    else:
        h, c, projected = keep
    block_rows = PROJECTION_ROWS if keep is None else len(inputs)
    block = slice(0, 0)
    rec = np.empty((widest, 4 * H), dtype=dtype)
    tanh_c = np.empty((widest, H), dtype=dtype)
    ic = np.empty((widest, H), dtype=dtype)
    for t, step in enumerate(steps):
        n = step.stop - step.start
        if step.stop > block.stop:
            last = max(t + 1, bisect.bisect_right(offsets, step.start + block_rows) - 1)
            block = slice(step.start, offsets[last])
            proj = projected[: block.stop - block.start]
            np.matmul(inputs[block], w_x, out=proj)
            proj += b_half
        g = projected[step.start - block.start : step.stop - block.start]
        if t == 0:
            c_prev = np.zeros((n, H), dtype=dtype)
        else:
            rows = steps[t - 1] if parents[t] is None else parents[t]
            h_prev, c_prev = h[rows], c[rows]
            r = rec[:n]
            np.matmul(h_prev, w_h, out=r)
            g += r
        lstm_cell_update(g, c_prev, c[step], tanh_c[:n], h[step], ic[:n])
    return h


def infer_allocating(
    params: NapModelParams,
    x: np.ndarray,
    *,
    nap_only: bool = False,
    time: bool = False,
    weights: dict[str, tuple] | None = None,
) -> Inference:
    """Tape-free inference pass over (B, k, width) grids in INFER_CHUNK-row chunks.

    The heads of `forward_graph(train=False)` without the tape, run once per
    distinct input prefix: the LSTMs are causal and infer-mode batch norm is
    per feature, so rows that agree on steps 0..t agree on every state up to
    step t.  Each chunk becomes a `prefix_tree`; every LSTM layer steps its
    nodes, and the heads read each row's last-step node.  The time head, a
    training target, runs only with `time` (the validation loss).
    `nap_only` skips the explanation head, for callers that need only the
    activity head.  Batch-norm running statistics never move.  Callers that
    make many calls pass `infer_weights(params, x.dtype, time=time)` as
    `weights`, built once.
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1:] != (params.k, params.width):
        raise ValueError(f"expected (B, {params.k}, {params.width}) input, got {x.shape}")
    if weights is None:
        weights = infer_weights(params, x.dtype, time=time)

    def head(h_last, bn, dense):
        return batch_norm_infer(h_last, bn) @ dense.W.value + dense.b.value

    logits, scores, times = [], [], []
    # an empty batch still makes one pass, so every output keeps its shape
    for start in range(0, max(x.shape[0], 1), INFER_CHUNK):
        tree = prefix_tree(x[start : start + INFER_CHUNK])
        last = slice(tree.offsets[-2], None)

        def lstm(inputs, name):
            return lstm_prefix_forward_allocating(inputs, tree.offsets, tree.parents, weights[name])

        h2 = lstm(lstm(tree.inputs, "shared1"), "shared2")
        a_last = lstm(batch_norm_infer(h2, params.act_bn_in), "act_lstm")[last]
        logits.append(head(a_last, params.act_bn_out, params.act_head)[tree.leaves])
        if params.selfexplain and not nap_only:
            exp = params.exp_head
            scores.append(expit(h2[last] @ exp.W.value + exp.b.value)[tree.leaves])
        if time:
            t_last = lstm(batch_norm_infer(h2, params.time_bn_in), "time_lstm")[last]
            times.append(head(t_last, params.time_bn_out, params.time_head)[tree.leaves, 0])
    return Inference(
        logits=np.concatenate(logits),
        scores=np.concatenate(scores) if scores else None,
        time=np.concatenate(times) if times else None,
    )
