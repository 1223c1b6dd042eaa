"""Dual propagation: the subset mask, complement resampling, joint losses.

Every batch propagates once normally; the explanation scores then pick the
candidate subset S (threshold tau, event-index columns always forced in), a
masked input z is built with z_S = x_S and the complement drawn independently
per feature, and z re-propagates through the same trunk.  The faithfulness
loss is the cross-entropy of the masked pass against the first pass's argmax;
the cardinality loss is the batch-mean L1 of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingSpec, KIND_ACTIVITY, KIND_INDEX
from .model import GraphOutputs, Inference, NapModelParams, forward_graph
from .neural import (
    Var,
    add,
    l1_batch_mean,
    l1_batch_mean_value,
    mae_loss,
    mae_loss_value,
    masked_blend,
    reshape,
    scale,
    softmax_cross_entropy,
    softmax_cross_entropy_value,
    subset_mask,
)

SAMPLE_ACTIVITY = 0  # Bernoulli(0.5) over {0, 1}
SAMPLE_INDEX = 1     # structurally forced into S; resampled only by post-hoc search
SAMPLE_UNIFORM = 2   # uniform over the feature's empirical training range


@dataclass
class FeatureSampler:
    """Independent per-feature distribution D over the flat encoded grid."""

    kinds: np.ndarray  # (n,) int8
    lo: np.ndarray     # (n,) float32
    hi: np.ndarray     # (n,) float32

    def __post_init__(self):
        if not (self.kinds.shape == self.lo.shape == self.hi.shape):
            raise ValueError("sampler arrays must share one shape")
        if not np.all(np.isfinite(self.lo)) or not np.all(np.isfinite(self.hi)):
            raise ValueError("sampler ranges must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("sampler ranges must satisfy lo <= hi")

    @property
    def n_features(self) -> int:
        return self.kinds.shape[0]

    @property
    def forced_mask(self) -> np.ndarray:
        return self.kinds == SAMPLE_INDEX

    @classmethod
    def fit(cls, spec: EncodingSpec, train_x: np.ndarray) -> "FeatureSampler":
        """Derive per-feature kinds from the layout and ranges from training data."""
        flat = np.asarray(train_x, dtype=np.float32).reshape(-1, spec.n_features)
        if flat.shape[0] == 0:
            raise ValueError("cannot fit a sampler on an empty training set")
        kinds = np.empty(spec.n_features, dtype=np.int8)
        for col in range(spec.width):
            kind = spec.column_kind(col)
            if kind == KIND_ACTIVITY:
                value = SAMPLE_ACTIVITY
            elif kind == KIND_INDEX:
                value = SAMPLE_INDEX
            else:
                value = SAMPLE_UNIFORM
            kinds[col :: spec.width] = value
        return cls(kinds=kinds, lo=flat.min(axis=0), hi=flat.max(axis=0))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample `count` full feature grids (one uniform draw per entry)."""
        u = rng.random((count, self.n_features))
        out = (self.lo + (self.hi - self.lo) * u).astype(np.float32)
        activity = self.kinds == SAMPLE_ACTIVITY
        out[:, activity] = (u[:, activity] < 0.5).astype(np.float32)
        return out


@dataclass
class DualOutputs:
    first: GraphOutputs
    nap_logits_masked: Var
    subset: np.ndarray       # (B, n) bool, forced columns included
    masked_flat: np.ndarray  # (B, n) values actually fed to the second pass
    predicted: np.ndarray    # (B,) first-pass argmax classes


def dual_propagate(
    params: NapModelParams,
    x: np.ndarray,
    tau: float,
    sampler: FeatureSampler,
    rng: np.random.Generator,
    *,
    train: bool = True,
) -> DualOutputs:
    """Run both propagations and wire the straight-through mask between them.

    The second pass shares all trunk weights, draws fresh dropout masks, and
    never updates batch-norm running statistics.  Sampled noise and the
    first-pass argmax are constants to the tape.
    """
    if not params.selfexplain:
        raise ValueError("dual propagation needs a model with an explanation head")
    x = np.asarray(x, dtype=np.float32)
    B = x.shape[0]
    first = forward_graph(params, x, train=train, rng=rng)
    predicted = np.argmax(first.nap_logits.value, axis=1)

    forced = np.broadcast_to(sampler.forced_mask, (B, sampler.n_features))
    x_flat = x.reshape(B, -1)
    noise = sampler.draw(rng, B)
    z_flat, hard = masked_blend(first.exp_scores, x_flat, noise, forced, tau)
    z = reshape(z_flat, x.shape)
    second = forward_graph(
        params, z, train=train, rng=rng, nap_only=True, bn_update=False
    )
    return DualOutputs(
        first=first,
        nap_logits_masked=second.nap_logits,
        subset=hard,
        masked_flat=z_flat.value,
        predicted=predicted,
    )


def _objective(ce, mae, faith, card, lam: float, xi: float, add, scale):
    """ce + mae + lam * faith + xi * card, summed in this order.

    A weighted term enters only when its weight is positive.  `senn_losses`
    passes tape nodes with the tape's `add` and `scale`, `senn_loss_values`
    0-d arrays with numpy's, so the training and validation totals are
    summed one way.
    """
    total = add(ce, mae)
    if lam > 0.0:
        total = add(total, scale(faith, lam))
    if xi > 0.0:
        total = add(total, scale(card, xi))
    return total


def _check_terms(lam: float, xi: float, masked, predicted, scores):
    if lam < 0 or xi < 0:
        raise ValueError("loss coefficients must be nonnegative")
    if lam > 0.0 and (masked is None or predicted is None):
        raise ValueError("faithfulness term needs the masked propagation")
    if xi > 0.0 and scores is None:
        raise ValueError("cardinality term needs explanation scores")


def senn_losses(
    first: GraphOutputs,
    nap_logits_masked: Var | None,
    predicted: np.ndarray | None,
    y_activity: np.ndarray,
    y_time: np.ndarray,
    lam: float,
    xi: float,
) -> tuple[Var, dict[str, float]]:
    """Joint objective: CE + MAE + lam * faithfulness CE + xi * L1 cardinality.

    With lam = xi = 0 this reduces exactly to the baseline dual-head loss.
    """
    _check_terms(lam, xi, nap_logits_masked, predicted, first.exp_scores)
    ce = softmax_cross_entropy(first.nap_logits, y_activity)
    mae = mae_loss(first.time_pred, y_time)
    faith = softmax_cross_entropy(nap_logits_masked, predicted) if lam > 0.0 else None
    card = l1_batch_mean(first.exp_scores) if xi > 0.0 else None
    total = _objective(ce, mae, faith, card, lam, xi, add, scale)
    components = {
        "ce": float(ce.value),
        "mae": float(mae.value),
        "faith": float(faith.value) if faith is not None else 0.0,
        "card": float(card.value) if card is not None else 0.0,
        "total": float(total.value),
    }
    return total, components


def senn_loss_values(
    first: Inference,
    logits_masked: np.ndarray | None,
    predicted: np.ndarray | None,
    y_activity: np.ndarray,
    y_time: np.ndarray,
    lam: float,
    xi: float,
) -> dict[str, float]:
    """`senn_losses`'s components without a tape, from `infer(time=True)` outputs."""
    _check_terms(lam, xi, logits_masked, predicted, first.scores)
    ce = softmax_cross_entropy_value(first.logits, y_activity)
    mae = mae_loss_value(first.time, y_time)
    faith = softmax_cross_entropy_value(logits_masked, predicted) if lam > 0.0 else None
    card = l1_batch_mean_value(first.scores) if xi > 0.0 else None
    total = _objective(ce, mae, faith, card, lam, xi, np.add, np.multiply)
    return {
        "ce": float(ce),
        "mae": float(mae),
        "faith": float(faith) if faith is not None else 0.0,
        "card": float(card) if card is not None else 0.0,
        "total": float(total),
    }
