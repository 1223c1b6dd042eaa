"""Dual-head next-activity network with an optional explanation head.

Architecture: a shared two-layer LSTM stack (input width -> 100 -> 100) feeds
two branches, each batch norm + one LSTM layer (100 -> 100) + batch norm + a
dense head.  The activity head emits |A|+1 logits (end-of-sequence included);
the time head emits one unactivated real.  In self-explaining mode a dense +
sigmoid head over the shared stack's final hidden state scores every input
feature in [0, 1].  Every LSTM layer output gets dropout 0.2 in train mode.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass

import numpy as np

from .encoding import EXTRA_FEATURES
from .neural import (
    BatchNormParams,
    DenseParams,
    LSTMLayerParams,
    LSTMWorkspace,
    Var,
    batch_norm,
    batch_norm_infer,
    constant,
    dense,
    dropout_mask,
    expit,
    half_scaled,
    init_batchnorm,
    init_dense,
    init_lstm,
    last_step,
    lstm_layer,
    lstm_prefix_forward,
    mul,
    reshape,
    sigmoid,
)

HIDDEN_SIZE = 100
DROPOUT_RATE = 0.2


@dataclass
class NapModelParams:
    """All weights of the network plus batch-norm running statistics."""

    shared1: LSTMLayerParams
    shared2: LSTMLayerParams
    act_bn_in: BatchNormParams
    act_lstm: LSTMLayerParams
    act_bn_out: BatchNormParams
    act_head: DenseParams
    time_bn_in: BatchNormParams
    time_lstm: LSTMLayerParams
    time_bn_out: BatchNormParams
    time_head: DenseParams
    exp_head: DenseParams | None
    vocab_size: int
    k: int
    dropout: float = DROPOUT_RATE

    @property
    def selfexplain(self) -> bool:
        return self.exp_head is not None

    @property
    def width(self) -> int:
        return self.vocab_size + EXTRA_FEATURES

    @property
    def n_features(self) -> int:
        return self.k * self.width

    def _groups(self) -> list[tuple[str, LSTMLayerParams | BatchNormParams | DenseParams]]:
        names = ["shared1", "shared2", "act_bn_in", "act_lstm", "act_bn_out", "act_head",
                 "time_bn_in", "time_lstm", "time_bn_out", "time_head"]
        if self.exp_head is not None:
            names.append("exp_head")
        return [(name, getattr(self, name)) for name in names]

    def named_parameters(self) -> list[tuple[str, Var]]:
        return [pair for prefix, group in self._groups() for pair in group.named(prefix)]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix in ("act_bn_in", "act_bn_out", "time_bn_in", "time_bn_out"):
            out.extend(getattr(self, prefix).named_buffers(prefix))
        return out

    def sections(self) -> list[tuple[str, np.ndarray]]:
        """Every stored array as (name, array): the checkpoint's sections, in order.

        Each LSTM contributes its per-gate views of the packed weights, so
        writing into a section writes into the live parameter.
        """
        out = []
        for prefix, group in self._groups():
            if isinstance(group, LSTMLayerParams):
                out.extend(group.gate_views(prefix))
            else:
                out.extend((name, p.value) for name, p in group.named(prefix))
        return out + self.named_buffers()

    def parameter_count(self) -> int:
        return sum(int(p.value.size) for _, p in self.named_parameters())

    def copy(self) -> "NapModelParams":
        """Deep copy of all parameter values, running statistics and settings."""
        return copy.deepcopy(self)


def init_model(
    vocab_size: int,
    k: int,
    *,
    selfexplain: bool = False,
    seed: int | None = 0,
    dtype=np.float32,
) -> NapModelParams:
    """Initialize all weights from a seed; `seed=None` allocates them without draws.

    The explanation head draws from its own derived stream so the trunk and
    branch weights are identical between baseline and self-explaining models
    built from the same seed.  Without a seed the weights that would be
    drawn are zeros: a target to copy or load values into.
    """
    def stream(key: int) -> np.random.Generator | None:
        if seed is None:
            return None
        return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))

    trunk_rng, head_rng = stream(0), stream(1)
    width = vocab_size + EXTRA_FEATURES
    params = NapModelParams(
        shared1=init_lstm(trunk_rng, width, HIDDEN_SIZE, dtype),
        shared2=init_lstm(trunk_rng, HIDDEN_SIZE, HIDDEN_SIZE, dtype),
        act_bn_in=init_batchnorm(HIDDEN_SIZE, dtype),
        act_lstm=init_lstm(trunk_rng, HIDDEN_SIZE, HIDDEN_SIZE, dtype),
        act_bn_out=init_batchnorm(HIDDEN_SIZE, dtype),
        # one class per activity plus end-of-sequence
        act_head=init_dense(trunk_rng, HIDDEN_SIZE, vocab_size + 1, dtype),
        time_bn_in=init_batchnorm(HIDDEN_SIZE, dtype),
        time_lstm=init_lstm(trunk_rng, HIDDEN_SIZE, HIDDEN_SIZE, dtype),
        time_bn_out=init_batchnorm(HIDDEN_SIZE, dtype),
        time_head=init_dense(trunk_rng, HIDDEN_SIZE, 1, dtype),
        exp_head=(
            init_dense(head_rng, HIDDEN_SIZE, k * width, dtype) if selfexplain else None
        ),
        vocab_size=vocab_size,
        k=k,
    )
    return params


@dataclass
class GraphOutputs:
    """Tape nodes produced by one propagation."""

    nap_logits: Var
    time_pred: Var | None
    exp_scores: Var | None


def forward_graph(
    params: NapModelParams,
    x: np.ndarray | Var,
    *,
    train: bool,
    rng: np.random.Generator | None = None,
    nap_only: bool = False,
    bn_update: bool = True,
) -> GraphOutputs:
    """Build the forward tape for a (B, k, width) batch.

    `x` may itself be a tape node (the masked second propagation).  Dropout
    masks are drawn from `rng` in a fixed layer order; batch-norm running
    statistics move only when `train and bn_update`.
    """
    node = x if isinstance(x, Var) else constant(np.asarray(x))
    if node.value.ndim != 3 or node.value.shape[1:] != (params.k, params.width):
        raise ValueError(
            f"expected (B, {params.k}, {params.width}) input, got {node.value.shape}"
        )
    if train and params.dropout > 0.0 and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")
    dtype = node.value.dtype
    update = train and bn_update

    def dropped(seq: Var) -> Var:
        if not train or params.dropout <= 0.0:
            return seq
        mask = dropout_mask(rng, seq.value.shape, params.dropout, dtype)
        return mul(seq, constant(mask))

    h1 = dropped(lstm_layer(node, params.shared1))
    h2 = dropped(lstm_layer(h1, params.shared2))

    a_in = batch_norm(h2, params.act_bn_in, train, update)
    a_seq = dropped(lstm_layer(a_in, params.act_lstm))
    a_last = batch_norm(last_step(a_seq), params.act_bn_out, train, update)
    nap_logits = dense(a_last, params.act_head)

    time_pred = None
    if not nap_only:
        t_in = batch_norm(h2, params.time_bn_in, train, update)
        t_seq = dropped(lstm_layer(t_in, params.time_lstm))
        t_last = batch_norm(last_step(t_seq), params.time_bn_out, train, update)
        time_pred = reshape(dense(t_last, params.time_head), (node.value.shape[0],))

    exp_scores = None
    if params.selfexplain and not nap_only:
        exp_scores = sigmoid(dense(last_step(h2), params.exp_head))

    return GraphOutputs(nap_logits, time_pred, exp_scores)


INFER_CHUNK = 2048


@dataclass
class PrefixTree:
    """The distinct prefixes of a (B, T, D) batch: one node per step and prefix."""

    inputs: np.ndarray                 # (N, D) each node's input row
    offsets: list[int]                 # step t's nodes are offsets[t]:offsets[t+1]
    parents: list[np.ndarray | None]   # per step, as `lstm_prefix_forward` reads them
    leaves: np.ndarray                 # (B,) each row's last-step node, from offsets[T-1]


def prefix_tree(x: np.ndarray) -> PrefixTree:
    """Group the rows whose steps 0..t are byte-identical into one node of step t."""
    B, T, D = x.shape
    bits = np.ascontiguousarray(x).view(f"u{x.itemsize}")
    # in byte order, the rows that share a byte prefix form one run
    order = np.argsort(
        bits.reshape(B, T * D).view(np.dtype((np.void, x.itemsize * T * D))).ravel(),
        kind="stable",
    )
    ordered = bits[order]
    # a sorted row opens a new node at every step from its first difference
    # to the row before it on
    differs = np.any(ordered[1:] != ordered[:-1], axis=2)
    first = np.where(differs.any(axis=1), differs.argmax(axis=1), T)
    opens = np.ones((T, B), dtype=bool)
    opens[:, 1:] = first <= np.arange(T)[:, None]
    node = np.cumsum(opens, axis=1) - 1  # (T, B) node of each sorted row, per step
    offsets = [0, *np.cumsum(opens.sum(axis=1)).tolist()]
    steps, rows = np.nonzero(opens)
    parents: list[np.ndarray | None] = [None]
    for t in range(1, T):
        lo, hi = offsets[t], offsets[t + 1]
        if hi - lo != lo - offsets[t - 1]:
            parents.append(offsets[t - 1] + node[t - 1, rows[lo:hi]])
        else:
            parents.append(None)
    leaves = np.empty(B, dtype=np.intp)
    leaves[order] = node[T - 1]
    return PrefixTree(x[order[rows], steps], offsets, parents, leaves)


@dataclass
class Inference:
    """Plain-numpy outputs of an inference pass."""

    logits: np.ndarray               # (B, |A|+1) activity logits
    scores: np.ndarray | None        # (B, k*width) in [0, 1]; None without explanation
    time: np.ndarray | None          # (B,) time head output; None unless asked for

    @property
    def classes(self) -> np.ndarray:
        """(B,) argmax class, ties to the lowest index."""
        return np.argmax(self.logits, axis=1)


def infer_weights(
    params: NapModelParams, dtype=np.float32, *, time: bool = False
) -> dict[str, tuple]:
    """The half-scaled kernel weights of the LSTMs `infer` runs, for `dtype` input.

    `time` adds the time head's LSTM, for `infer(time=True)`.
    """
    names = ("shared1", "shared2", "act_lstm") + (("time_lstm",) if time else ())
    return {name: half_scaled(getattr(params, name), dtype) for name in names}


def infer(
    params: NapModelParams,
    x: np.ndarray,
    *,
    nap_only: bool = False,
    time: bool = False,
    weights: dict[str, tuple] | None = None,
    workspace: LSTMWorkspace | None = None,
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

    Memory: a chunk of N tree nodes holds at most two (N, H) layer outputs at
    a time, three with `time`.  The explanation scores and the branches'
    batch norms are taken from the shared stack's output, which is then
    dropped before the branch LSTMs run.  Every LSTM's scratch comes from
    `workspace`, one per call when None; a caller that keeps one across
    calls (as `make_predictor` does, per thread) allocates no scratch once
    it has grown.
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1:] != (params.k, params.width):
        raise ValueError(f"expected (B, {params.k}, {params.width}) input, got {x.shape}")
    if weights is None:
        weights = infer_weights(params, x.dtype, time=time)
    if workspace is None:
        workspace = LSTMWorkspace()

    def run(rows):
        tree = prefix_tree(rows)
        last = slice(tree.offsets[-2], None)

        def lstm(inputs, name):
            return lstm_prefix_forward(
                inputs, tree.offsets, tree.parents, weights[name], workspace=workspace
            )

        def head(inputs, name, bn, dense):
            # the branch LSTM's output is dropped as soon as its last step is read
            h_last = lstm(inputs, name)[last]
            return (batch_norm_infer(h_last, bn) @ dense.W.value + dense.b.value)[tree.leaves]

        h2 = lstm(lstm(tree.inputs, "shared1"), "shared2")
        scores = None
        if params.selfexplain and not nap_only:
            exp = params.exp_head
            scores = expit(h2[last] @ exp.W.value + exp.b.value)[tree.leaves]
        a_in = batch_norm_infer(h2, params.act_bn_in)
        t_in = batch_norm_infer(h2, params.time_bn_in) if time else None
        del h2
        logits = head(a_in, "act_lstm", params.act_bn_out, params.act_head)
        del a_in
        if not time:
            return logits, scores, None
        return logits, scores, head(t_in, "time_lstm", params.time_bn_out, params.time_head)[:, 0]

    # an empty batch still makes one pass, so every output keeps its shape
    starts = range(0, max(x.shape[0], 1), INFER_CHUNK)
    logits, scores, times = zip(*(run(x[start : start + INFER_CHUNK]) for start in starts))
    return Inference(
        logits=np.concatenate(logits),
        scores=np.concatenate(scores) if scores[0] is not None else None,
        time=np.concatenate(times) if time else None,
    )


def make_predictor(params: NapModelParams):
    """Class-prediction closure over flat (B, k*width) inputs (inference mode).

    The closure may be called from several threads at once: each thread keeps
    its own `LSTMWorkspace`, reused across its calls and freed with the thread.
    """
    k, width = params.k, params.width
    weights = infer_weights(params, np.float32)
    local = threading.local()

    def predict(flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float32)
        if flat.ndim == 1:
            flat = flat[None]
        workspace = getattr(local, "workspace", None)
        if workspace is None:
            workspace = local.workspace = LSTMWorkspace()
        return infer(
            params, flat.reshape(-1, k, width), nap_only=True, weights=weights, workspace=workspace
        ).classes

    return predict
