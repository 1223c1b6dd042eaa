"""Architecture assembly, forward passes, and the full-model gradient oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sennap.model import (
    INFER_CHUNK, forward_graph, infer, init_model, make_predictor, prefix_tree,
)
from sennap.neural import softmax_cross_entropy, mae_loss, add
from sennap.selfexplain import senn_losses

from oracles import max_rel_error

VOCAB, K = 4, 5
WIDTH = VOCAB + 5
CROSSING = INFER_CHUNK + 88  # rows that span two `infer` chunks


def _input(batch=3, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    x = np.zeros((batch, K, WIDTH), dtype=dtype)
    hot = rng.integers(0, VOCAB, (batch, K))
    for b in range(batch):
        for t in range(K):
            x[b, t, hot[b, t]] = 1.0
            x[b, t, VOCAB] = t + 1
            x[b, t, VOCAB + 1 :] = rng.random(4)
    return x


def _zeroed_model(seed):
    params = init_model(VOCAB, K, seed=seed)
    for _, p in params.named_parameters():
        p.value = np.zeros_like(p.value)
    return params


def _predict(params, x):
    return make_predictor(params)(x.reshape(x.shape[0], -1))


class TestForward:
    def test_nap_probs_is_distribution(self):
        params = init_model(VOCAB, K, seed=1)
        x = _input(batch=8)
        out = infer(params, x)
        assert out.classes.shape == (8,)
        assert np.all((out.classes >= 0) & (out.classes <= VOCAB))
        assert forward_graph(params, x, train=False).time_pred.value.shape == (8,)

    def test_zeroed_model_gives_uniform_probs(self):
        params = _zeroed_model(seed=1)
        x = _input()
        np.testing.assert_array_equal(infer(params, x).classes, 0)
        np.testing.assert_array_equal(forward_graph(params, x, train=False).time_pred.value, 0.0)

    def test_explanation_scores_in_unit_interval(self):
        params = init_model(VOCAB, K, selfexplain=True, seed=2)
        out = infer(params, _input(batch=6))
        assert out.scores.shape == (6, K * WIDTH)
        assert np.all(out.scores >= 0)
        assert np.all(out.scores <= 1)

    def test_baseline_has_no_scores(self):
        params = init_model(VOCAB, K, seed=3)
        assert infer(params, _input()).scores is None

    def test_inference_deterministic_train_stochastic(self):
        params = init_model(VOCAB, K, seed=4)
        x = _input()
        a = infer(params, x)
        b = infer(params, x)
        np.testing.assert_array_equal(a.classes, b.classes)
        rng = np.random.default_rng(0)
        t1 = forward_graph(params, x, train=True, rng=rng, bn_update=False)
        t2 = forward_graph(params, x, train=True, rng=rng, bn_update=False)
        assert not np.array_equal(t1.nap_logits.value, t2.nap_logits.value)

    def test_input_shape_validated(self):
        params = init_model(VOCAB, K, seed=5)
        with pytest.raises(ValueError, match="expected"):
            infer(params, np.zeros((2, K, WIDTH + 1), dtype=np.float32))

    def test_chunked_forward_matches_single_batch(self):
        # the rows span two chunks; the halves cut them elsewhere
        params = init_model(VOCAB, K, selfexplain=True, seed=6)
        x = _input(batch=CROSSING)
        half = CROSSING // 2
        whole = infer(params, x)
        halves = [infer(params, x[:half]), infer(params, x[half:])]
        np.testing.assert_array_equal(
            whole.classes, np.concatenate([h.classes for h in halves])
        )
        np.testing.assert_allclose(
            whole.scores, np.concatenate([h.scores for h in halves]), rtol=1e-6
        )

    def test_predictor_closure_matches_forward(self):
        params = init_model(VOCAB, K, selfexplain=True, seed=7)
        x = _input(batch=5)
        np.testing.assert_array_equal(_predict(params, x), infer(params, x).classes)
        np.testing.assert_array_equal(
            _predict(params, x), infer(params, x, nap_only=True).classes
        )


def _spread_model(selfexplain):
    params = init_model(VOCAB, K, selfexplain=selfexplain, seed=11)
    rng = np.random.default_rng(12)
    # spread weights and batch-norm statistics so that four classes occur
    for _, p in params.named_parameters():
        p.value = p.value + rng.normal(0, 1.0, p.value.shape).astype(p.value.dtype)
    for name, buf in params.named_buffers():
        if name.endswith("running_var"):
            buf[...] = rng.uniform(0.2, 0.5, buf.shape)
        else:
            buf[...] = rng.normal(0, 0.2, buf.shape)
    return params


def _shared_prefix_batch(seed, n_rows):
    """Rows built from a few sources: copies, copies re-drawn after some step,
    and sources shifted left with all-zero padding rows in front."""
    rng = np.random.default_rng(seed)
    sources = _input(batch=3, seed=seed)
    rows = []
    for _ in range(n_rows):
        row = sources[rng.integers(3)].copy()
        kind = rng.integers(3)
        if kind == 1:
            t = rng.integers(K)
            row[t + 1 :] = _input(batch=1, seed=int(rng.integers(1 << 30)))[0, t + 1 :]
        elif kind == 2:
            pad = rng.integers(1, K)
            row = np.concatenate([np.zeros((pad, WIDTH), row.dtype), row[: K - pad]])
        rows.append(row)
    return np.stack(rows)


class TestTapeFreeInfer:
    """`infer` runs the LSTM kernel without a tape; `forward_graph` is the oracle."""

    @pytest.mark.parametrize("selfexplain", [False, True])
    @pytest.mark.parametrize("batch", [1, CROSSING])
    def test_matches_forward_graph(self, selfexplain, batch):
        params = _spread_model(selfexplain)
        x = _input(batch=batch, seed=13)
        fast = infer(params, x)
        graph = forward_graph(params, x, train=False)
        np.testing.assert_array_equal(fast.classes, np.argmax(graph.nap_logits.value, axis=1))
        if selfexplain:
            np.testing.assert_allclose(fast.scores, graph.exp_scores.value, rtol=1e-5, atol=1e-7)
        else:
            assert fast.scores is None
        np.testing.assert_array_equal(infer(params, x, nap_only=True).classes, fast.classes)

    @pytest.mark.parametrize("selfexplain", [False, True])
    def test_time_output_matches_forward_graph(self, selfexplain):
        params = _spread_model(selfexplain)
        x = _input(batch=CROSSING, seed=14)
        fast = infer(params, x, time=True)
        graph = forward_graph(params, x, train=False)
        np.testing.assert_allclose(fast.time, graph.time_pred.value, rtol=1e-5, atol=1e-5)
        np.testing.assert_array_equal(fast.classes, infer(params, x).classes)
        assert infer(params, x).time is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31), n_rows=st.integers(1, 300), selfexplain=st.booleans())
    def test_shared_prefixes_match_forward_graph(self, seed, n_rows, selfexplain):
        # float64, so the tolerances measure the prefix sharing and not
        # float32 rounding between batch sizes
        params = _spread_model(selfexplain)
        x = _shared_prefix_batch(seed, n_rows).astype(np.float64)
        fast = infer(params, x)
        graph = forward_graph(params, x, train=False)
        np.testing.assert_array_equal(fast.classes, np.argmax(graph.nap_logits.value, axis=1))
        if selfexplain:
            np.testing.assert_allclose(fast.scores, graph.exp_scores.value, rtol=1e-5, atol=1e-7)


class TestPrefixTree:
    def test_one_node_per_distinct_prefix(self):
        x = _input(batch=2, seed=3)
        late = x[0].copy()
        late[3:] = x[1, 3:]  # equal to row 0 on steps 0..2
        batch = np.stack([x[0], x[1], x[0], late, x[1]])
        tree = prefix_tree(batch)
        distinct = [len({batch[b, : t + 1].tobytes() for b in range(5)}) for t in range(K)]
        assert np.diff(tree.offsets).tolist() == distinct == [2, 2, 2, 3, 3]
        last = tree.inputs[tree.offsets[-2] :]
        np.testing.assert_array_equal(last[tree.leaves], batch[:, -1])
        assert tree.leaves[0] == tree.leaves[2] and tree.leaves[1] == tree.leaves[4]

    def test_padding_rows_shared(self):
        x = _input(batch=4, seed=5)
        for b in range(4):
            x[b, : b + 1] = 0.0  # prefixes of four lengths, left-padded
        tree = prefix_tree(x)
        assert np.diff(tree.offsets).tolist() == [1, 2, 3, 4, 4]

    def test_empty_batch(self):
        tree = prefix_tree(np.zeros((0, K, WIDTH), dtype=np.float32))
        assert tree.offsets == [0] * (K + 1)
        assert tree.leaves.shape == (0,)


class TestPredictClass:
    def _biased(self, bias):
        params = _zeroed_model(seed=9)
        params.act_head.b.value = np.asarray(bias, dtype=np.float32)
        return params

    def test_plain_argmax(self):
        params = self._biased([0.1, 0.7, 0.2, 0.0, 0.0])
        np.testing.assert_array_equal(_predict(params, _input()), 1)

    def test_uniform_ties_to_lowest_index(self):
        np.testing.assert_array_equal(_predict(_zeroed_model(seed=1), _input()), 0)

    def test_one_hot_at_eos(self):
        bias = np.zeros(VOCAB + 1)
        bias[VOCAB] = 1.0
        np.testing.assert_array_equal(_predict(self._biased(bias), _input()), VOCAB)

    def test_batched(self):
        params = init_model(VOCAB, K, seed=10)
        x = _input(batch=7)
        rows = [_predict(params, x[i : i + 1])[0] for i in range(7)]
        np.testing.assert_array_equal(_predict(params, x), rows)
        flat = x.reshape(7, -1)
        assert make_predictor(params)(flat[0]).shape == (1,)
        assert make_predictor(params)(flat[:0]).shape == (0,)


class TestParameters:
    def test_count_is_function_of_dims_only(self):
        a = init_model(VOCAB, K, seed=1)
        b = init_model(VOCAB, K, seed=99)
        assert a.parameter_count() == b.parameter_count()

    def test_explanation_head_is_only_difference(self):
        base = init_model(VOCAB, K, seed=1)
        senn = init_model(VOCAB, K, selfexplain=True, seed=1)
        head = K * WIDTH * 100 + K * WIDTH
        assert senn.parameter_count() - base.parameter_count() == head

    def test_trunk_init_identical_across_modes(self):
        base = dict(init_model(VOCAB, K, seed=21).named_parameters())
        senn = dict(init_model(VOCAB, K, selfexplain=True, seed=21).named_parameters())
        for name, p in base.items():
            np.testing.assert_array_equal(p.value, senn[name].value)

    def test_unseeded_model_draws_nothing(self):
        seeded = init_model(VOCAB, K, selfexplain=True, seed=3)
        unseeded = init_model(VOCAB, K, selfexplain=True, seed=None)
        assert [(n, a.shape) for n, a in unseeded.sections()] == [
            (n, a.shape) for n, a in seeded.sections()
        ]
        for layer in (unseeded.shared1, unseeded.act_head, unseeded.exp_head):
            assert not layer.W.value.any()
        clone = seeded.copy()
        for (_, a), (_, b) in zip(clone.sections(), seeded.sections()):
            np.testing.assert_array_equal(a, b)

    def test_copy_is_deep(self):
        params = init_model(VOCAB, K, selfexplain=True, seed=8)
        params.dropout = 0.0
        clone = params.copy()
        assert clone.dropout == 0.0 and clone.selfexplain
        originals = [a for _, a in params.sections()]
        for (name, a), b in zip(clone.sections(), originals):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype, name
            assert not any(np.shares_memory(a, other) for other in originals), name
        clone.shared1.W.value[0, 0] += 1.0
        assert params.shared1.W.value[0, 0] != clone.shared1.W.value[0, 0]
        clone.act_bn_in.running_mean[0] += 1.0
        assert params.act_bn_in.running_mean[0] != clone.act_bn_in.running_mean[0]


class TestFullModelGradient:
    """Finite-difference oracle over the complete differentiable graph."""

    def test_baseline_loss_gradient(self):
        rng = np.random.default_rng(123)
        params = init_model(2, 3, seed=11, dtype=np.float64)
        params.dropout = 0.0
        x = _input_small(rng)
        y_act = np.array([0, 2])
        y_time = np.array([0.5, -1.0])

        def loss():
            out = forward_graph(params, x, train=True, bn_update=False)
            return add(
                softmax_cross_entropy(out.nap_logits, y_act),
                mae_loss(out.time_pred, y_time),
            )

        wrt = [p for _, p in params.named_parameters()]
        assert max_rel_error(loss, wrt, rng, entries_per_var=2) < 1e-3

    def test_selfexplain_cardinality_loss_gradient(self):
        rng = np.random.default_rng(321)
        params = init_model(2, 3, selfexplain=True, seed=12, dtype=np.float64)
        params.dropout = 0.0
        x = _input_small(rng)
        y_act = np.array([1, 2])
        y_time = np.array([0.0, 0.25])

        def loss():
            out = forward_graph(params, x, train=True, bn_update=False)
            total, _ = senn_losses(out, None, None, y_act, y_time, 0.0, 1e-2)
            return total

        wrt = [p for _, p in params.named_parameters()]
        assert max_rel_error(loss, wrt, rng, entries_per_var=2) < 1e-3


def _input_small(rng):
    x = rng.random((2, 3, 7))
    x[:, :, 0:2] = (x[:, :, 0:2] > 0.5).astype(np.float64)
    return x
