"""Self-contained differentiable numeric core.

Reverse-mode differentiation for the fixed operation set this architecture
needs (no general autodiff): dense layers, the standard four-gate LSTM cell,
batch normalization, inverted dropout, softmax cross-entropy, MAE, batch-mean
L1, a straight-through masked blend, and Adam.  Values are numpy arrays; the
tape is a plain DAG of `Var` nodes with per-node backward closures.

All computations preserve the dtype of their inputs (float32 in training,
float64 in gradient checks).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


class Var:
    """One node of the reverse-mode tape, wrapping a single ndarray."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, *, requires_grad=False, parents=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=self.value.dtype, copy=True)
        else:
            self.grad += g


def parameter(value) -> Var:
    return Var(value, requires_grad=True)


def constant(value) -> Var:
    return Var(value)


def backward(root: Var):
    """Reverse sweep from a scalar root, accumulating grads into the leaves.

    A tape is walked once.  Once an inner node's backward has run, the node
    drops its grad and its closure, and with it what its op kept for the
    backward, so the sweep holds only the grads still to be passed on.
    Leaves (the parameters) keep their grads.
    """
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
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = node._backward = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Var, b: Var) -> Var:
    out_value = a.value @ b.value

    def back(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return Var(out_value, parents=(a, b), backward=back)


def add(a: Var, b: Var) -> Var:
    out_value = a.value + b.value

    def back(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    return Var(out_value, parents=(a, b), backward=back)


def mul(a: Var, b: Var) -> Var:
    out_value = a.value * b.value

    def back(g):
        a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return Var(out_value, parents=(a, b), backward=back)


def scale(a: Var, factor: float) -> Var:
    def back(g):
        a.accumulate(g * factor)

    return Var(a.value * factor, parents=(a,), backward=back)


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of an ndarray, exp-based (the LSTM kernel uses tanh)."""
    # overflow-free: compute sigma(|x|) in place, then mirror for negative x
    s = np.abs(x)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    np.reciprocal(s, out=s)
    return np.where(x >= 0, s, 1.0 - s)


def sigmoid(a: Var) -> Var:
    y = expit(a.value)

    def back(g):
        a.accumulate(g * y * (1.0 - y))

    return Var(y, parents=(a,), backward=back)


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    def back(g):
        a.accumulate(g.reshape(a.value.shape))

    return Var(a.value.reshape(shape), parents=(a,), backward=back)


def last_step(a: Var) -> Var:
    """Select the final time step of a (B, T, H) sequence."""
    if a.value.ndim != 3:
        raise ValueError(f"last_step expects (B, T, H), got {a.shape}")

    def back(g):
        full = np.zeros_like(a.value)
        full[:, -1, :] = g
        a.accumulate(full)

    return Var(a.value[:, -1, :], parents=(a,), backward=back)


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


@dataclass
class DenseParams:
    W: Var  # (in, out)
    b: Var  # (out,)

    def named(self, prefix: str):
        return [(f"{prefix}.W", self.W), (f"{prefix}.b", self.b)]


def glorot_uniform(rng: np.random.Generator | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Glorot-uniform weights; without an rng, zeros of the shape (no draws)."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_dense(
    rng: np.random.Generator | None, d_in: int, d_out: int, dtype=np.float32
) -> DenseParams:
    return DenseParams(
        W=parameter(glorot_uniform(rng, (d_in, d_out), dtype)),
        b=parameter(np.zeros(d_out, dtype=dtype)),
    )


def dense(x: Var, params: DenseParams) -> Var:
    return add(matmul(x, params.W), params.b)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


@dataclass
class LSTMLayerParams:
    """Packed gate weights over the concatenation [h_prev, x_t].

    `W` is (H+D, 4H): rows [:H] act on h, rows [H:] on x, and the column
    blocks are the gates in the order f, i, c, o; `b` is (4H,).
    """

    W: Var
    b: Var

    @property
    def hidden_size(self) -> int:
        return self.W.value.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.W.value.shape[0] - self.hidden_size

    def named(self, prefix: str):
        return [(f"{prefix}.W", self.W), (f"{prefix}.b", self.b)]

    def gate_views(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        """Per-gate (H, H+D) weight and (H,) bias views, the checkpoint sections."""
        H = self.hidden_size
        blocks = [(gate, slice(n * H, (n + 1) * H)) for n, gate in enumerate("fico")]
        weights = [(f"{prefix}.W_{gate}", self.W.value[:, cols].T) for gate, cols in blocks]
        return weights + [(f"{prefix}.b_{gate}", self.b.value[cols]) for gate, cols in blocks]


def init_lstm(
    rng: np.random.Generator | None, input_size: int, hidden_size: int, dtype=np.float32
) -> LSTMLayerParams:
    # one glorot draw per gate over (H, H+D), in gate order, packed transposed:
    # each gate keeps its own limit and the random stream is unchanged
    blocks = [
        glorot_uniform(rng, (hidden_size, hidden_size + input_size), dtype).T for _ in range(4)
    ]
    b = np.zeros(4 * hidden_size, dtype=dtype)
    # forget bias starts at 1 so early training retains cell state
    b[:hidden_size] = 1.0
    return LSTMLayerParams(
        W=parameter(np.ascontiguousarray(np.concatenate(blocks, axis=1))),
        b=parameter(b),
    )


def half_scaled(params: LSTMLayerParams, dtype) -> tuple[np.ndarray, np.ndarray]:
    """`lstm_prefix_forward`'s (H+D, 4H) weight and (4H,) bias, f/i/o columns scaled by 1/2.

    The scaling is exact, and it lets one tanh over the gate block give every
    gate (see `lstm_cell_update`).  The forward of training and inference reads
    this column-major weight, and `lstm_layer`'s backward a row-major W^T: BLAS
    rounds small-batch products differently per layout, and these layouts keep
    same-seed checkpoints and predictions bit-identical across releases.
    """
    H = params.hidden_size
    half = np.ones(4 * H, dtype=dtype)
    half[: 2 * H] = 0.5
    half[3 * H :] = 0.5
    W = params.W.value.astype(dtype, copy=False)
    b = params.b.value.astype(dtype, copy=False)
    return np.multiply(W, half, order="F"), b * half


def lstm_cell_update(
    g: np.ndarray,
    c_prev: np.ndarray,
    c: np.ndarray,
    tanh_c: np.ndarray,
    h: np.ndarray,
    scratch: np.ndarray,
):
    """One step's fused gate activation and state update, in place.

    `g` holds the (B, 4H) half-scaled pre-activations of the gates f, i, c, o.
    A single tanh over the block gives the candidate and, through
    sigmoid(x) = 0.5 tanh(x/2) + 0.5, the sigmoid gates.  Writes the cell
    state to `c`, its tanh to `tanh_c` and the hidden state to `h`;
    `scratch` is a (B, H) buffer.
    """
    H = c.shape[1]
    np.tanh(g, out=g)
    sig = g[:, : 2 * H]
    sig *= 0.5
    sig += 0.5
    o = g[:, 3 * H :]
    o *= 0.5
    o += 0.5
    np.multiply(g[:, :H], c_prev, out=c)
    np.multiply(g[:, H : 2 * H], g[:, 2 * H : 3 * H], out=scratch)
    c += scratch
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


# nodes per input-side projection in `lstm_prefix_forward` without `keep`: one
# matmul covers as many whole steps as fit, so a small tree is projected at once
# and a large one never holds an (N, 4H) block
PROJECTION_ROWS = 1024


class LSTMWorkspace:
    """Scratch buffers for `lstm_prefix_forward`, grown as needed and reused across calls.

    One buffer per role, dtype and width; a call takes views of their leading
    rows.  It holds scratch only, never a layer's output, so what it keeps
    between calls is bounded by the widest step and projection block seen.
    Not thread-safe: each thread needs its own.
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(self, role: str, rows: int, cols: int, dtype) -> np.ndarray:
        """A C-contiguous (rows, cols) view of `role`'s buffer; its contents are undefined."""
        key = (role, np.dtype(dtype), cols)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < rows:
            buffer = self._buffers[key] = self._allocate(rows, cols, dtype)
        return buffer[:rows]

    @staticmethod
    def _allocate(rows: int, cols: int, dtype) -> np.ndarray:
        return np.empty((rows, cols), dtype=dtype)


def lstm_prefix_forward(
    inputs: np.ndarray,
    offsets: Sequence[int],
    parents: Sequence[np.ndarray | None],
    weights: tuple[np.ndarray, np.ndarray],
    keep: Sequence[np.ndarray] | None = None,
    workspace: LSTMWorkspace | None = None,
) -> np.ndarray:
    """Tape-free LSTM over a prefix tree: one node per distinct input prefix.

    The nodes are ordered by step: step t's nodes are `offsets[t]:offsets[t+1]`,
    and each continues the (h, c) of the step t-1 node that `parents[t]` names
    (None at step 0, and where step t's nodes continue step t-1's in order).
    `inputs` holds each node's (D,) input row and `weights` comes from
    `half_scaled`.  Returns the (N, H) hidden states; without `keep` they
    are the only (N, ·) array the call allocates.  The cell state then lives
    in two step-sized buffers, the step being computed and its parents' step.
    Those, the projection block, the recurrent product, the cell scratch and
    the parent gathers are views of `workspace`'s buffers (a fresh one when
    None), so every layer and chunk of a caller that passes one workspace
    reuses them.  `keep`, passed only by `lstm_layer`, is the node-indexed
    storage BPTT reads, (N, H) `h` and `c` and (N, 4H) activated gates; all
    nodes then project at once.  The tanh of each step's cell state is
    scratch on both paths, and BPTT recomputes it.
    """
    w_half, b_half = weights
    H = w_half.shape[1] // 4
    dtype = inputs.dtype
    w_h, w_x = w_half[:H], w_half[H:]
    steps = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    widest = max(step.stop - step.start for step in steps)
    if workspace is None:
        workspace = LSTMWorkspace()

    def scratch(role, rows, cols=H):
        return workspace.take(role, rows, cols, dtype)

    if keep is None:
        h = np.empty((inputs.shape[0], H), dtype=dtype)
        projected = scratch("projected", max(widest, min(len(inputs), PROJECTION_ROWS)), 4 * H)
        # step t's cell state goes to cells[t % 2], so the other holds its parents'
        cells = (scratch("c_even", widest), scratch("c_odd", widest))
    else:
        h, c, projected = keep
    block_rows = PROJECTION_ROWS if keep is None else len(inputs)
    block = slice(0, 0)
    rec = scratch("rec", widest, 4 * H)
    tanh_c = scratch("tanh_c", widest)
    ic = scratch("ic", widest)
    h_gather, c_gather = scratch("h_parent", widest), scratch("c_parent", widest)
    for t, step in enumerate(steps):
        n = step.stop - step.start
        if step.stop > block.stop:
            last = max(t + 1, bisect.bisect_right(offsets, step.start + block_rows) - 1)
            block = slice(step.start, offsets[last])
            proj = projected[: block.stop - block.start]
            np.matmul(inputs[block], w_x, out=proj)
            proj += b_half
        g = projected[step.start - block.start : step.stop - block.start]
        c_step = cells[t % 2][:n] if keep is None else c[step]
        if t == 0:
            c_prev = c_gather[:n]
            c_prev.fill(0)
        else:
            prev = steps[t - 1]
            # step t-1's cell state, and the node its row 0 holds
            c_before, first = (cells[(t - 1) % 2], prev.start) if keep is None else (c, 0)
            if parents[t] is None:
                h_prev, c_prev = h[prev], c_before[prev.start - first : prev.stop - first]
            else:
                rows = parents[t]
                h_prev = np.take(h, rows, axis=0, out=h_gather[:n], mode="clip")
                c_prev = np.take(c_before, rows - first, axis=0, out=c_gather[:n], mode="clip")
            r = rec[:n]
            np.matmul(h_prev, w_h, out=r)
            g += r
        lstm_cell_update(g, c_prev, c_step, tanh_c[:n], h[step], ic[:n])
    return h


def lstm_layer(x: Var, params: LSTMLayerParams) -> Var:
    """Full-sequence LSTM node on the tape, for training: input (B, T, D) -> output (B, T, H).

    The forward is `lstm_prefix_forward` over the time-major rows from h_0 = c_0 = 0,
    keeping only what BPTT reads: the hidden and cell states and the activated
    gates.  The backward runs once: it recomputes each step's tanh of the cell
    state, writes each step's gate gradients over that step's gates, and
    rebuilds the time-major input from `x`.  The weight gradients are single
    whole-sequence matmuls; backward uses the unscaled weights.
    """
    xv = x.value
    if xv.ndim != 3 or xv.shape[2] != params.input_size:
        raise ValueError(
            f"lstm_layer expects (B, T, {params.input_size}), got {xv.shape}"
        )
    B, T, D = xv.shape
    H = params.hidden_size
    dtype = xv.dtype

    # h[0] = c[0] = 0, so h[1:] is the output sequence and h[:-1] the previous states
    h = np.zeros((T + 1, B, H), dtype=dtype)
    c = np.zeros((T + 1, B, H), dtype=dtype)
    gates = np.empty((T, B, 4 * H), dtype=dtype)
    # a flat tree: step t's nodes are rows t*B:(t+1)*B, each continuing its row of step t-1
    lstm_prefix_forward(
        np.ascontiguousarray(xv.transpose(1, 0, 2)).reshape(T * B, D),
        [t * B for t in range(T + 1)], [None] * T, half_scaled(params, dtype),
        keep=[a.reshape(-1, a.shape[-1]) for a in (h[1:], c[1:], gates)],
    )
    out = h[1:].transpose(1, 0, 2)

    def back(g):
        # (4H, H+D) row-major; the layout note is in `half_scaled`
        w_t = np.ascontiguousarray(params.W.value.T, dtype=dtype)
        dh_next = np.zeros((B, H), dtype=dtype)
        dc_next = np.zeros((B, H), dtype=dtype)
        for t in range(T - 1, -1, -1):
            # step t's gates are read for the last time here, and take its d_raw
            d_raw = gates[t]
            f = d_raw[:, :H]
            i = d_raw[:, H : 2 * H]
            c_bar = d_raw[:, 2 * H : 3 * H]
            o = d_raw[:, 3 * H :]
            # the forward's tanh on the same (B, H) rows, so the same bits
            tanh_ct = np.tanh(c[t + 1])

            dh = g[:, t, :] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_ct * tanh_ct)
            d_c = (dc * i) * (1.0 - c_bar * c_bar)
            dc_next = dc * f
            f[...] = (dc * c[t]) * (f * (1.0 - f))
            i[...] = (dc * c_bar) * (i * (1.0 - i))
            c_bar[...] = d_c
            o[...] = (dh * tanh_ct) * (o * (1.0 - o))
            dh_next = d_raw @ w_t[:, :H]

        d_flat = gates.reshape(T * B, 4 * H)
        # the h-side and x-side weight gradients, one matmul each
        d_w = np.empty((H + D, 4 * H), dtype=dtype)
        np.matmul(h[:-1].reshape(T * B, H).T, d_flat, out=d_w[:H])
        xs = np.ascontiguousarray(x.value.transpose(1, 0, 2)).reshape(T * B, D)
        np.matmul(xs.T, d_flat, out=d_w[H:])
        params.W.accumulate(d_w)
        params.b.accumulate(d_flat.sum(axis=0))
        if x.requires_grad:
            dx = (d_flat @ w_t[:, H:]).reshape(T, B, D)
            x.accumulate(dx.transpose(1, 0, 2))

    return Var(out, parents=(x, params.W, params.b), backward=back)


def dropout_mask(
    rng: np.random.Generator, shape: tuple[int, ...], rate: float, dtype=np.float32
) -> np.ndarray:
    """Inverted-dropout multiplier: keep with probability 1-rate, scale by 1/(1-rate)."""
    if rate <= 0.0:
        return np.ones(shape, dtype=dtype)
    if rate >= 1.0:
        return np.zeros(shape, dtype=dtype)
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) * np.asarray(1.0 / (1.0 - rate), dtype=dtype)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


@dataclass
class BatchNormParams:
    gamma: Var
    beta: Var
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @property
    def num_features(self) -> int:
        return self.gamma.value.shape[0]

    def named(self, prefix: str):
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]

    def named_buffers(self, prefix: str):
        return [
            (f"{prefix}.running_mean", self.running_mean),
            (f"{prefix}.running_var", self.running_var),
        ]


def init_batchnorm(num_features: int, dtype=np.float32) -> BatchNormParams:
    return BatchNormParams(
        gamma=parameter(np.ones(num_features, dtype=dtype)),
        beta=parameter(np.zeros(num_features, dtype=dtype)),
        running_mean=np.zeros(num_features, dtype=dtype),
        running_var=np.ones(num_features, dtype=dtype),
    )


def batch_norm_infer(x: np.ndarray, bn: BatchNormParams) -> np.ndarray:
    """Tape-free infer-mode batch norm; the same bits as `batch_norm(train=False)`.

    The tape's ops in the tape's order, written into one output buffer.
    """
    inv_std = 1.0 / np.sqrt(bn.running_var + x.dtype.type(bn.eps))
    out = np.subtract(x, bn.running_mean)
    out *= inv_std
    np.multiply(bn.gamma.value, out, out=out)
    out += bn.beta.value
    return out


def batch_norm(x: Var, bn: BatchNormParams, train: bool, update_running: bool = True) -> Var:
    """Normalize over all axes but the last.

    Train mode uses biased batch statistics and, when `update_running` is set,
    folds them into the running estimates (momentum 0.1).  Infer mode is the
    affine map through the running statistics.
    """
    xv = x.value
    C = bn.num_features
    if xv.shape[-1] != C:
        raise ValueError(f"batch_norm expects trailing dim {C}, got {xv.shape}")
    flat = xv.reshape(-1, C)
    dtype = xv.dtype
    eps = dtype.type(bn.eps)

    if train:
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
    else:
        mean, var = bn.running_mean, bn.running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (flat - mean) * inv_std
    if train and update_running:
        m = bn.momentum
        bn.running_mean[...] = (1.0 - m) * bn.running_mean + m * mean
        bn.running_var[...] = (1.0 - m) * bn.running_var + m * var
    out = (bn.gamma.value * x_hat + bn.beta.value).reshape(xv.shape)

    def back(g):
        g_flat = g.reshape(-1, C)
        bn.gamma.accumulate((g_flat * x_hat).sum(axis=0))
        bn.beta.accumulate(g_flat.sum(axis=0))
        if not x.requires_grad:
            return
        if train:
            # biased-variance batch-norm backward in its compact form
            d_hat = g_flat * bn.gamma.value
            dx = inv_std * (
                d_hat
                - d_hat.mean(axis=0)
                - x_hat * (d_hat * x_hat).mean(axis=0)
            )
        else:
            dx = g_flat * bn.gamma.value * inv_std
        x.accumulate(dx.reshape(xv.shape))

    return Var(out, parents=(x, bn.gamma, bn.beta), backward=back)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_value(logits: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Mean over the batch of -log softmax(logits)[class], 0-d in the logits' dtype."""
    if logits.ndim != 2:
        raise ValueError(f"expected (B, C) logits, got {logits.shape}")
    B, C = logits.shape
    classes = np.asarray(classes)
    if classes.shape != (B,):
        raise ValueError(f"expected {B} class labels, got shape {classes.shape}")
    if classes.min() < 0 or classes.max() >= C:
        raise ValueError(f"class index out of range [0, {C})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(B), classes]
    return np.asarray((log_z - picked).mean(), dtype=logits.dtype)


def softmax_cross_entropy(logits: Var, classes: np.ndarray) -> Var:
    """`softmax_cross_entropy_value` as a tape node."""
    lv = logits.value
    loss = softmax_cross_entropy_value(lv, classes)
    classes = np.asarray(classes)
    B = lv.shape[0]
    probs = softmax(lv)

    def back(g):
        d = probs.copy()
        d[np.arange(B), classes] -= 1.0
        logits.accumulate(g * d / B)

    return Var(loss, parents=(logits,), backward=back)


def mae_loss_value(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mean absolute error, 0-d in the prediction's dtype."""
    target = np.asarray(target, dtype=pred.dtype)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    return np.asarray(np.abs(pred - target).mean(), dtype=pred.dtype)


def mae_loss(pred: Var, target: np.ndarray) -> Var:
    """`mae_loss_value` as a tape node."""
    pv = pred.value
    loss = mae_loss_value(pv, target)
    target = np.asarray(target, dtype=pv.dtype)

    def back(g):
        # subgradient of |.| at 0 is taken as 0
        pred.accumulate(g * np.sign(pv - target) / pv.size)

    return Var(loss, parents=(pred,), backward=back)


def l1_batch_mean_value(values: np.ndarray) -> np.ndarray:
    """Sum of absolute values, averaged over the leading (batch) axis; 0-d."""
    if values.ndim != 2:
        raise ValueError(f"expected (B, n) values, got {values.shape}")
    return np.asarray(np.abs(values).sum() / values.shape[0], dtype=values.dtype)


def l1_batch_mean(values: Var) -> Var:
    """`l1_batch_mean_value` as a tape node."""
    vv = values.value
    loss = l1_batch_mean_value(vv)
    B = vv.shape[0]

    def back(g):
        values.accumulate(g * np.sign(vv) / B)

    return Var(loss, parents=(values,), backward=back)


def subset_mask(scores: np.ndarray, tau: float, forced: np.ndarray) -> np.ndarray:
    """Boolean subset S over (..., n) scores: score >= tau, plus the forced set."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return (np.asarray(scores) >= tau) | np.asarray(forced, dtype=bool)


def masked_blend_value(
    scores: np.ndarray,
    x_flat: np.ndarray,
    noise: np.ndarray,
    forced: np.ndarray,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """z = x on the `subset_mask` of the scores, sampled noise elsewhere: (z, hard mask)."""
    hard = subset_mask(scores, tau, forced)
    return np.where(hard, x_flat, noise).astype(scores.dtype), hard


def masked_blend(
    scores: Var,
    x_flat: np.ndarray,
    noise: np.ndarray,
    forced: np.ndarray,
    tau: float,
) -> tuple[Var, np.ndarray]:
    """`masked_blend_value` as a tape node.

    The hard mask is treated as identity for the gradient back to the scores
    (straight-through); positions the scores cannot control (forced columns)
    pass no gradient.  Returns (z node, hard mask).
    """
    sv = scores.value
    z, hard = masked_blend_value(sv, x_flat, noise, forced, tau)
    pass_through = (~forced).astype(sv.dtype)

    def back(g):
        scores.accumulate(g * (x_flat - noise) * pass_through)

    return Var(z, parents=(scores,), backward=back), hard


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators and the step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    named_params: Sequence[tuple[str, Var]],
    state: AdamState,
    learning_rate: float,
):
    """Standard bias-corrected Adam update; clears grads afterwards."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.value -= (learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)).astype(
            p.value.dtype, copy=False
        )
        p.grad = None
