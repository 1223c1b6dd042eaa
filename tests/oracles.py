"""Reference implementations the numeric-core tests compare the package against.

`lstm_cell_step` is the exp-based single-instance LSTM cell that the fused
tanh kernels must match; `max_rel_error` checks analytic gradients against
central finite differences; `fit_normalizers_loop` and `encode_dataset_loop`
encode one prefix at a time, event by event, which the gathers in
`sennap.encoding` must match bit for bit; `round_estimates_per_event_row` is
the post-hoc round that scores one event row's candidates per `predict` call,
which the per-draw calls of `sennap.posthoc` must match bit for bit;
`lstm_layer_loop` is the training LSTM with its own time-major forward loop,
which `sennap.neural.lstm_layer` on the prefix-tree kernel must match bit for
bit, forward and backward; `backward_keeping_tape` is the reverse sweep that
leaves every node's grad and closure in place, whose parameter grads
`sennap.neural.backward`, which frees the tape as it walks it, must match bit
for bit.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Callable, Sequence

import numpy as np

from sennap.encoding import Dataset, EncodingSpec
from sennap.errors import EncodingError
from sennap.eventlog import PrefixRecord
from sennap.neural import LSTMLayerParams, Var, backward, expit, half_scaled, lstm_cell_update
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
