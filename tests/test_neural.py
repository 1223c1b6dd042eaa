"""Numeric-core contracts: closed forms, independent oracles, gradient checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sennap import neural
from sennap.neural import (
    AdamState,
    adam_step,
    backward,
    batch_norm,
    batch_norm_infer,
    constant,
    dense,
    dropout_mask,
    init_batchnorm,
    init_dense,
    init_lstm,
    l1_batch_mean,
    lstm_layer,
    mae_loss,
    masked_blend,
    mul,
    parameter,
    softmax_cross_entropy,
)

from oracles import lstm_cell_step, lstm_layer_loop, max_rel_error


def _zeroed_lstm(hidden, inputs, dtype=np.float64):
    params = init_lstm(np.random.default_rng(0), inputs, hidden, dtype)
    for _, p in params.named("z"):
        p.value = np.zeros_like(p.value)
    return params


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------


class TestLstmCellStep:
    def test_zero_weights_zero_state(self):
        params = _zeroed_lstm(3, 2)
        h, c = lstm_cell_step(params, np.zeros(3), np.zeros(3), np.ones(2))
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_zero_weights_unit_cell_state(self):
        # all gates sigmoid(0) = 0.5, candidate tanh(0) = 0:
        # c = 0.5 * 1 + 0.5 * 0 = 0.5, h = 0.5 * tanh(0.5)
        params = _zeroed_lstm(1, 2)
        h, c = lstm_cell_step(params, np.zeros(1), np.ones(1), np.zeros(2))
        assert c[0] == pytest.approx(0.5)
        assert h[0] == pytest.approx(0.5 * math.tanh(0.5))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_independent_scalar_evaluation(self, seed):
        """Oracle: the five cell equations evaluated with pure-python loops."""
        rng = np.random.default_rng(seed)
        H, D = 2, 3
        params = init_lstm(rng, D, H, np.float64)
        for _, p in params.named("r"):
            p.value = rng.normal(0, 0.5, size=p.value.shape)
        h_prev = rng.normal(0, 1, H)
        c_prev = rng.normal(0, 1, H)
        x_t = rng.normal(0, 1, D)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def gate(block, squash):
            # column block `block` of the packed (H+D, 4H) weights, gate order f, i, c, o
            cols = slice(block * H, (block + 1) * H)
            W, b = params.W.value[:, cols], params.b.value[cols]
            hx = list(h_prev) + list(x_t)
            out = []
            for row in range(H):
                acc = b[row]
                for col in range(H + D):
                    acc += W[col][row] * hx[col]
                out.append(squash(acc))
            return out

        f = gate(0, sig)
        i = gate(1, sig)
        c_bar = gate(2, math.tanh)
        o = gate(3, sig)
        c_expect = [f[j] * c_prev[j] + i[j] * c_bar[j] for j in range(H)]
        h_expect = [o[j] * math.tanh(c_expect[j]) for j in range(H)]

        h, c = lstm_cell_step(params, h_prev, c_prev, x_t)
        np.testing.assert_allclose(c, c_expect, rtol=1e-12)
        np.testing.assert_allclose(h, h_expect, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = _zeroed_lstm(2, 3)
        with pytest.raises(ValueError):
            lstm_cell_step(params, np.zeros(2), np.zeros(2), np.zeros(5))

    @pytest.mark.parametrize("seed", range(10))
    def test_hidden_state_bounded(self, seed):
        rng = np.random.default_rng(100 + seed)
        params = init_lstm(rng, 4, 3, np.float64)
        h = np.zeros(3)
        c = np.zeros(3)
        for _ in range(20):
            h, c = lstm_cell_step(params, h, c, rng.normal(0, 3, 4))
            assert np.all(np.abs(h) < 1.0)


class TestLstmLayer:
    def test_layer_matches_repeated_cell_steps(self):
        rng = np.random.default_rng(42)
        params = init_lstm(rng, 3, 4, np.float64)
        xs = rng.normal(0, 1, (2, 5, 3))
        out = lstm_layer(constant(xs), params).value
        for b in range(2):
            h = np.zeros(4)
            c = np.zeros(4)
            for t in range(5):
                h, c = lstm_cell_step(params, h, c, xs[b, t])
                np.testing.assert_allclose(out[b, t], h, rtol=1e-9, atol=1e-12)

    @staticmethod
    def _saturated(seed, dtype):
        """Weights and inputs whose gate pre-activations reach +-40 and beyond."""
        rng = np.random.default_rng(seed)
        params = init_lstm(rng, 3, 4, dtype)
        for _, p in params.named("s"):
            p.value = rng.normal(0, 2, size=p.value.shape).astype(dtype)
        xs = rng.normal(0, 4, (3, 8, 3)).astype(dtype)
        return params, xs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(5))
    def test_saturated_layer_matches_cell_steps(self, seed, dtype):
        params, xs = self._saturated(seed, dtype)
        out = lstm_layer(constant(xs), params).value
        assert out.dtype == dtype
        assert np.all(np.isfinite(out))
        tol = {"rtol": 1e-5, "atol": 1e-6} if dtype == np.float32 else {"rtol": 1e-9, "atol": 1e-12}
        peak = 0.0
        for b in range(xs.shape[0]):
            h = np.zeros(4, dtype=dtype)
            c = np.zeros(4, dtype=dtype)
            for t in range(xs.shape[1]):
                hx = np.concatenate([h, xs[b, t]])
                i_pre = hx @ params.W.value[:, 4:8] + params.b.value[4:8]  # the i block
                peak = max(peak, float(np.abs(i_pre).max()))
                h, c = lstm_cell_step(params, h, c, xs[b, t])
                np.testing.assert_allclose(out[b, t], h, **tol)
        assert peak > 30.0

    @pytest.mark.parametrize("seed", range(10))
    def test_saturated_gradient_check(self, seed):
        params, xs_value = self._saturated(300 + seed, np.float64)
        rng = np.random.default_rng(seed)
        xs = parameter(xs_value)
        classes = rng.integers(0, 4, xs_value.shape[0])
        head = init_dense(rng, 4, 4, np.float64)

        def loss():
            final = neural.last_step(lstm_layer(xs, params))
            return softmax_cross_entropy(dense(final, head), classes)

        wrt = [xs] + [p for _, p in params.named("s")] + [head.W, head.b]
        assert max_rel_error(loss, wrt, rng, entries_per_var=3) < 1e-3

    @staticmethod
    def _forward_backward(layer, params, xs, head, classes):
        """One layer's output and its W, b and x gradients through a loss on every step."""
        x = parameter(xs.copy())
        for _, p in params.named("l"):
            p.grad = None
        out = layer(x, params)
        B, T, H = out.shape
        backward(softmax_cross_entropy(dense(neural.reshape(out, (B, T * H)), head), classes))
        return out.value, params.W.grad, params.b.grad, x.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("D", [19, 100])
    @pytest.mark.parametrize("T", [1, 15])
    @pytest.mark.parametrize("B", [1, 2, 3, 57, 64])
    def test_layer_matches_time_loop_bit_for_bit(self, B, T, D, dtype):
        rng = np.random.default_rng(B * 1000 + T * 10 + D)
        params = init_lstm(rng, D, 100, dtype)
        head = init_dense(rng, T * 100, 5, dtype)
        xs = rng.normal(0, 1, (B, T, D)).astype(dtype)
        classes = rng.integers(0, 5, B)
        ours = self._forward_backward(lstm_layer, params, xs, head, classes)
        loop = self._forward_backward(lstm_layer_loop, params, xs, head, classes)
        for got, want in zip(ours, loop):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_empty_batch_keeps_its_shape(self):
        params = init_lstm(np.random.default_rng(0), 3, 4)
        out = lstm_layer(constant(np.zeros((0, 5, 3), dtype=np.float32)), params).value
        assert out.shape == (0, 5, 4) and out.dtype == np.float32

    def test_inference_kernel_matches_layer_on_a_flat_tree(self):
        # T*B <= PROJECTION_ROWS: the blocked projection is the same one matmul
        B, T, D = 57, 15, 19
        assert T * B <= neural.PROJECTION_ROWS
        rng = np.random.default_rng(5)
        params = init_lstm(rng, D, 100)
        xs = rng.normal(0, 1, (B, T, D)).astype(np.float32)
        flat = neural.lstm_prefix_forward(
            np.ascontiguousarray(xs.transpose(1, 0, 2)).reshape(T * B, D),
            range(0, (T + 1) * B, B),
            [None] * T,
            neural.half_scaled(params, np.float32),
        )
        out = lstm_layer(constant(xs), params).value
        np.testing.assert_array_equal(flat.reshape(T, B, 100).transpose(1, 0, 2), out)

    def test_dropout_zero_train_equals_infer(self):
        rng = np.random.default_rng(0)
        params = init_lstm(rng, 3, 4)
        xs = rng.normal(0, 1, (2, 6, 3)).astype(np.float32)
        infer = lstm_layer(constant(xs), params).value
        train = infer * dropout_mask(rng, infer.shape, 0.0, infer.dtype)
        np.testing.assert_array_equal(train, infer)

    def test_dropout_one_zeroes_everything(self):
        rng = np.random.default_rng(0)
        params = init_lstm(rng, 3, 4)
        xs = rng.normal(0, 1, (1, 5, 3)).astype(np.float32)
        out = lstm_layer(constant(xs), params).value
        np.testing.assert_array_equal(out * dropout_mask(rng, out.shape, 1.0), 0.0)

    def test_dropout_mask_reproducible_under_seed(self):
        mask_a = dropout_mask(np.random.default_rng(9), (4, 7), 0.2)
        mask_b = dropout_mask(np.random.default_rng(9), (4, 7), 0.2)
        np.testing.assert_array_equal(mask_a, mask_b)
        scaled = set(np.unique(mask_a))
        assert scaled <= {0.0, np.float32(1 / 0.8)}


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = constant(np.zeros((1, 4)))
        loss = softmax_cross_entropy(logits, np.array([2]))
        assert float(loss.value) == pytest.approx(math.log(4))

    def test_cross_entropy_gradient_uniform(self):
        logits = parameter(np.zeros((1, 4)))
        loss = softmax_cross_entropy(logits, np.array([1]))
        backward(loss)
        np.testing.assert_allclose(logits.grad, [[0.25, -0.75, 0.25, 0.25]])

    def test_cross_entropy_invalid_class(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(constant(np.zeros((1, 3))), np.array([3]))

    def test_mae_zero_when_equal(self):
        pred = constant(np.array([1.0, -2.0, 3.0]))
        assert float(mae_loss(pred, np.array([1.0, -2.0, 3.0])).value) == 0.0

    def test_mae_value_and_gradient(self):
        pred = parameter(np.array([2.0, 0.0]))
        loss = mae_loss(pred, np.array([0.0, 1.0]))
        assert float(loss.value) == pytest.approx(1.5)
        backward(loss)
        np.testing.assert_allclose(pred.grad, [0.5, -0.5])

    def test_l1_batch_mean_values(self):
        assert float(l1_batch_mean(constant(np.zeros((1, 12)))).value) == 0.0
        assert float(l1_batch_mean(constant(np.ones((1, 12)))).value) == 12.0
        assert float(l1_batch_mean(constant(np.ones((3, 4)))).value) == 4.0

    def test_l1_gradient_at_positive_values_single_instance(self):
        values = parameter(np.full((1, 5), 0.3))
        backward(l1_batch_mean(values))
        np.testing.assert_array_equal(values.grad, np.ones((1, 5)))

    def test_l1_subgradient_at_zero_is_zero(self):
        values = parameter(np.array([[0.0, -2.0]]))
        backward(l1_batch_mean(values))
        np.testing.assert_array_equal(values.grad, [[0.0, -1.0]])


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(1)
        bn = init_batchnorm(6, np.float64)
        x = constant(rng.normal(3.0, 2.5, (32, 6)))
        out = batch_norm(x, bn, train=True).value
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_infer_mode_is_affine(self):
        rng = np.random.default_rng(2)
        bn = init_batchnorm(3, np.float64)
        bn.running_mean[...] = rng.normal(0, 1, 3)
        bn.running_var[...] = rng.uniform(0.5, 2.0, 3)
        bn.gamma.value = rng.normal(1, 0.2, 3)
        bn.beta.value = rng.normal(0, 0.2, 3)
        a = rng.normal(0, 1, (4, 3))
        b = rng.normal(0, 1, (4, 3))
        out_a = batch_norm(constant(a), bn, train=False).value
        out_b = batch_norm(constant(b), bn, train=False).value
        out_sum = batch_norm(constant(a + b), bn, train=False).value
        bias = batch_norm(constant(np.zeros((4, 3))), bn, train=False).value
        np.testing.assert_allclose(out_a + out_b - bias, out_sum, rtol=1e-9)

    def test_running_stats_momentum_update(self):
        bn = init_batchnorm(2, np.float64)
        x = np.array([[1.0, 10.0], [3.0, 14.0]])
        batch_norm(constant(x), bn, train=True, update_running=True)
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 12.0]))
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))

    def test_no_update_when_flagged_off(self):
        bn = init_batchnorm(2, np.float64)
        before = bn.running_mean.copy()
        batch_norm(constant(np.random.default_rng(0).normal(5, 1, (8, 2))), bn,
                   train=True, update_running=False)
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_three_dimensional_input(self):
        rng = np.random.default_rng(3)
        bn = init_batchnorm(4, np.float64)
        x = constant(rng.normal(0, 1, (5, 7, 4)))
        out = batch_norm(x, bn, train=True).value
        flat = out.reshape(-1, 4)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.lists(st.integers(0, 9), min_size=1, max_size=2),
        features=st.integers(1, 12),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_infer_matches_tape_bit_for_bit(self, seed, lead, features, dtype):
        rng = np.random.default_rng(seed)
        bn = init_batchnorm(features, dtype)
        bn.running_mean[...] = rng.normal(0, 3, features)
        bn.running_var[...] = rng.uniform(1e-3, 9.0, features)
        bn.gamma.value = rng.normal(1, 0.5, features).astype(dtype)
        bn.beta.value = rng.normal(0, 0.5, features).astype(dtype)
        x = rng.normal(0, 4, (*lead, features)).astype(dtype)
        got = batch_norm_infer(x, bn)
        want = batch_norm(constant(x), bn, train=False).value
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = parameter(np.array([1.0, 2.0]))
        state = AdamState()
        adam_step([("p", p)], state, learning_rate=0.1)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        p = parameter(np.zeros(3))
        p.grad = np.ones(3)
        adam_step([("p", p)], AdamState(), learning_rate=0.002)
        np.testing.assert_allclose(p.value, -0.002, rtol=1e-6)

    def test_constant_gradient_update_approaches_learning_rate(self):
        p = parameter(np.zeros(1))
        state = AdamState()
        lr = 0.01
        last = p.value.copy()
        for _ in range(500):
            p.grad = np.ones(1)
            last = p.value.copy()
            adam_step([("p", p)], state, lr)
        step = abs(float(p.value[0] - last[0]))
        assert step == pytest.approx(lr, rel=0.05)


# ---------------------------------------------------------------------------
# straight-through blend and tape mechanics
# ---------------------------------------------------------------------------


class TestMaskedBlend:
    def test_forward_semantics(self):
        scores = constant(np.array([[0.9, 0.1, 0.5]]))
        x = np.array([[1.0, 2.0, 3.0]])
        noise = np.array([[-1.0, -2.0, -3.0]])
        forced = np.array([[False, False, False]])
        z, hard = masked_blend(scores, x, noise, forced, tau=0.5)
        np.testing.assert_array_equal(z.value, [[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(hard, [[True, False, True]])

    def test_straight_through_gradient_contract(self):
        scores = parameter(np.array([[0.9, 0.1, 0.5]]))
        x = np.array([[1.0, 2.0, 3.0]])
        noise = np.array([[-1.0, -2.0, 0.5]])
        forced = np.array([[False, False, True]])
        z, _ = masked_blend(scores, x, noise, forced, tau=0.5)
        loss = mae_loss(z, np.zeros((1, 3)))
        backward(loss)
        upstream = np.sign(z.value) / 3.0
        expected = upstream * (x - noise) * np.array([[1.0, 1.0, 0.0]])
        np.testing.assert_allclose(scores.grad, expected)


class TestTape:
    def test_diamond_graph_accumulates_once_per_path(self):
        x = parameter(np.array([3.0]))
        y = mul(x, x)       # x^2, dy/dx = 2x
        z = mul(y, y)       # x^4
        loss = mae_loss(z, np.zeros(1))
        backward(loss)
        # d|x^4|/dx = 4x^3 = 108
        np.testing.assert_allclose(x.grad, [108.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            backward(parameter(np.zeros(3)))


# ---------------------------------------------------------------------------
# gradient checks against central finite differences
# ---------------------------------------------------------------------------


GRAD_TOL = 1e-3


class TestGradientChecks:
    @pytest.mark.parametrize("seed", range(20))
    def test_dense_softmax_ce(self, seed):
        rng = np.random.default_rng(seed)
        params = init_dense(rng, 5, 4, np.float64)
        x = constant(rng.normal(0, 1, (3, 5)))
        classes = rng.integers(0, 4, 3)

        def loss():
            return softmax_cross_entropy(dense(x, params), classes)

        wrt = [params.W, params.b]
        assert max_rel_error(loss, wrt, rng) < GRAD_TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_lstm_layer(self, seed):
        rng = np.random.default_rng(200 + seed)
        params = init_lstm(rng, 3, 4, np.float64)
        xs = constant(rng.normal(0, 1, (2, 5, 3)))
        classes = rng.integers(0, 4, 2)
        head = init_dense(rng, 4, 4, np.float64)

        def loss():
            final = neural.last_step(lstm_layer(xs, params))
            return softmax_cross_entropy(dense(final, head), classes)

        wrt = [p for _, p in params.named("l")] + [head.W, head.b]
        assert max_rel_error(loss, wrt, rng, entries_per_var=3) < GRAD_TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_batch_norm_train_and_infer(self, seed):
        rng = np.random.default_rng(400 + seed)
        bn = init_batchnorm(4, np.float64)
        bn.gamma.value = rng.normal(1, 0.3, 4)
        bn.beta.value = rng.normal(0, 0.3, 4)
        bn.running_mean[...] = rng.normal(0, 1, 4)
        bn.running_var[...] = rng.uniform(0.5, 2, 4)
        x = parameter(rng.normal(0, 1, (6, 4)))
        classes = rng.integers(0, 4, 6)
        train = bool(seed % 2)

        def loss():
            return softmax_cross_entropy(
                batch_norm(x, bn, train=train, update_running=False), classes
            )

        assert max_rel_error(loss, [x, bn.gamma, bn.beta], rng) < GRAD_TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_dropout_with_fixed_mask(self, seed):
        rng = np.random.default_rng(600 + seed)
        params = init_dense(rng, 4, 3, np.float64)
        x = constant(rng.normal(0, 1, (5, 4)))
        mask = constant(dropout_mask(rng, (5, 3), 0.4, np.float64))
        target = rng.normal(0, 1, (5, 3))

        def loss():
            return mae_loss(mul(dense(x, params), mask), target)

        assert max_rel_error(loss, [params.W, params.b], rng) < GRAD_TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_l1_away_from_kinks(self, seed):
        rng = np.random.default_rng(800 + seed)
        v = parameter(np.sign(rng.normal(0, 1, (3, 6))) * rng.uniform(0.5, 2, (3, 6)))

        def loss():
            return l1_batch_mean(v)

        assert max_rel_error(loss, [v], rng) < GRAD_TOL
