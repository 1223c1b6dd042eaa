"""Reference implementations the numeric-core tests compare the package against.

`lstm_cell_step` is the exp-based single-instance LSTM cell that the fused
tanh kernels must match; `max_rel_error` checks analytic gradients against
central finite differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from sennap.neural import LSTMLayerParams, Var, backward, expit


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
