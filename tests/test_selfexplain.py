"""Subset extraction, complement sampling, dual propagation, and joint losses."""

from __future__ import annotations

import numpy as np
import pytest

from sennap.encoding import EncodingSpec
from sennap.model import GraphOutputs, forward_graph, init_model
from sennap.neural import constant
from sennap.posthoc import estimate_precision
from sennap.model import make_predictor
from sennap.selfexplain import (
    SAMPLE_ACTIVITY,
    SAMPLE_INDEX,
    SAMPLE_UNIFORM,
    FeatureSampler,
    dual_propagate,
    senn_losses,
    subset_mask,
)

from conftest import build_log, make_markov_cases
from sennap.eventlog import generate_prefixes
from sennap.encoding import encode_dataset


def _toy_spec_and_x(n_cases=30, seed=6):
    log = build_log(make_markov_cases(n_cases, seed=seed))
    spec = EncodingSpec(tuple(log.vocabulary), log.k, 900.0, 700.0)
    records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
    data = encode_dataset(records, spec)
    return spec, data


class TestExtractSubset:
    def test_threshold_selection(self):
        m = subset_mask(np.array([0.7, 0.2, 0.5]), 0.5, np.zeros(3, dtype=bool))
        np.testing.assert_array_equal(np.flatnonzero(m), [0, 2])

    def test_zero_scores_keep_only_forced(self):
        forced = np.array([False, True, False, True])
        m = subset_mask(np.zeros(4), 0.5, forced)
        np.testing.assert_array_equal(np.flatnonzero(m), [1, 3])

    def test_all_ones_select_everything(self):
        m = subset_mask(np.ones(6), 0.5, np.zeros(6, dtype=bool))
        np.testing.assert_array_equal(np.flatnonzero(m), np.arange(6))

    def test_tau_out_of_range(self):
        for tau in (0.0, 1.0):
            with pytest.raises(ValueError):
                subset_mask(np.zeros(3), tau, np.zeros(3, dtype=bool))


class TestFeatureSampler:
    def test_fit_assigns_kinds_by_layout(self):
        spec, data = _toy_spec_and_x()
        sampler = FeatureSampler.fit(spec, data.x)
        kinds = sampler.kinds.reshape(spec.k, spec.width)
        assert np.all(kinds[:, : spec.vocab_size] == SAMPLE_ACTIVITY)
        assert np.all(kinds[:, spec.vocab_size] == SAMPLE_INDEX)
        assert np.all(kinds[:, spec.vocab_size + 1 :] == SAMPLE_UNIFORM)
        np.testing.assert_array_equal(
            sampler.forced_mask, spec.forced_flat_mask()
        )

    def test_ranges_cover_training_data(self):
        spec, data = _toy_spec_and_x()
        sampler = FeatureSampler.fit(spec, data.x)
        flat = data.x.reshape(len(data), -1)
        np.testing.assert_array_equal(sampler.lo, flat.min(axis=0))
        np.testing.assert_array_equal(sampler.hi, flat.max(axis=0))

    def test_bernoulli_columns_mean_half(self):
        sampler = FeatureSampler(
            kinds=np.array([SAMPLE_ACTIVITY, SAMPLE_UNIFORM], dtype=np.int8),
            lo=np.zeros(2, dtype=np.float32),
            hi=np.ones(2, dtype=np.float32),
        )
        draws = sampler.draw(np.random.default_rng(5), 10_000)
        assert set(np.unique(draws[:, 0])) == {0.0, 1.0}
        assert abs(draws[:, 0].mean() - 0.5) < 0.02

    def test_uniform_columns_respect_ranges(self):
        sampler = FeatureSampler(
            kinds=np.full(3, SAMPLE_UNIFORM, dtype=np.int8),
            lo=np.array([-2.0, 0.0, 5.0], dtype=np.float32),
            hi=np.array([-1.0, 0.0, 9.0], dtype=np.float32),
        )
        draws = sampler.draw(np.random.default_rng(6), 5000)
        assert draws[:, 0].min() >= -2.0 and draws[:, 0].max() <= -1.0
        np.testing.assert_array_equal(draws[:, 1], 0.0)
        assert draws[:, 2].min() >= 5.0 and draws[:, 2].max() <= 9.0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            FeatureSampler(
                kinds=np.zeros(2, dtype=np.int8),
                lo=np.array([1.0, 0.0], dtype=np.float32),
                hi=np.array([0.0, 1.0], dtype=np.float32),
            )


def _recording_predictor():
    """Constant-class predictor that keeps every batch it is asked about."""
    seen = []

    def predict(z):
        seen.append(np.array(z))
        return np.zeros(len(z), dtype=np.int64)

    return predict, seen


class TestBuildMaskedInput:
    """The masked inputs estimate_precision feeds the predictor."""

    def test_full_subset_reproduces_input_bitwise(self):
        spec, data = _toy_spec_and_x()
        sampler = FeatureSampler.fit(spec, data.x)
        x = data.x[0].reshape(-1)
        predict, seen = _recording_predictor()
        estimate_precision(
            predict, x, np.arange(x.size), sampler, 4, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(seen[-1], np.broadcast_to(x, (4, x.size)))

    def test_empty_subset_degenerate_sampler_gives_zeros(self):
        n = 6
        sampler = FeatureSampler(
            kinds=np.full(n, SAMPLE_UNIFORM, dtype=np.int8),
            lo=np.zeros(n, dtype=np.float32),
            hi=np.zeros(n, dtype=np.float32),
        )
        predict, seen = _recording_predictor()
        estimate_precision(
            predict, np.ones(n, dtype=np.float32), np.array([], dtype=int), sampler,
            3, np.random.default_rng(0),
        )
        np.testing.assert_array_equal(seen[-1], np.zeros((3, n)))

    def test_seeded_draws_reproducible_and_fresh(self):
        spec, data = _toy_spec_and_x()
        sampler = FeatureSampler.fit(spec, data.x)
        x = data.x[0].reshape(-1)
        empty = np.array([], dtype=int)
        predict, seen = _recording_predictor()
        # each estimate asks for x's class first, then for the masked batch
        estimate_precision(predict, x, empty, sampler, 2, np.random.default_rng(3))
        estimate_precision(predict, x, empty, sampler, 2, np.random.default_rng(3))
        np.testing.assert_array_equal(seen[1], seen[3])
        rng = np.random.default_rng(3)
        estimate_precision(predict, x, empty, sampler, 2, rng)
        estimate_precision(predict, x, empty, sampler, 2, rng)
        assert not np.array_equal(seen[5], seen[7])


class TestDualPropagate:
    def _setup(self, seed=13):
        spec, data = _toy_spec_and_x()
        params = init_model(spec.vocab_size, spec.k, selfexplain=True, seed=seed)
        sampler = FeatureSampler.fit(spec, data.x)
        return spec, data, params, sampler

    def test_masked_input_agrees_on_subset_every_batch(self):
        spec, data, params, sampler = self._setup()
        rng = np.random.default_rng(1)
        for start in range(0, 96, 32):
            x = data.x[start : start + 32]
            dual = dual_propagate(params, x, 0.5, sampler, rng, train=True)
            flat = x.reshape(x.shape[0], -1)
            np.testing.assert_array_equal(
                dual.masked_flat[dual.subset], flat[dual.subset]
            )

    def test_forced_columns_always_selected(self):
        spec, data, params, sampler = self._setup()
        dual = dual_propagate(
            params, data.x[:16], 0.5, sampler, np.random.default_rng(2), train=True
        )
        assert np.all(dual.subset[:, sampler.forced_mask])

    def test_tiny_tau_selects_all_and_preserves_prediction_exactly(self):
        spec, data, params, sampler = self._setup()
        dual = dual_propagate(
            params, data.x[:8], 1e-9, sampler, np.random.default_rng(3), train=False
        )
        assert np.all(dual.subset)
        flat = data.x[:8].reshape(8, -1)
        np.testing.assert_array_equal(dual.masked_flat, flat)
        np.testing.assert_array_equal(
            dual.nap_logits_masked.value, dual.first.nap_logits.value
        )

    def test_degenerate_sampler_makes_second_pass_deterministic(self):
        spec, data, params, _ = self._setup()
        sampler = FeatureSampler(
            kinds=np.full(spec.n_features, SAMPLE_UNIFORM, dtype=np.int8),
            lo=np.zeros(spec.n_features, dtype=np.float32),
            hi=np.zeros(spec.n_features, dtype=np.float32),
        )
        outs = [
            dual_propagate(
                params, data.x[:4], 0.5, sampler, np.random.default_rng(i), train=False
            ).nap_logits_masked.value
            for i in range(2)
        ]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_fixed_seed_reproduces_subset_input_and_losses(self):
        spec, data, params, sampler = self._setup()
        y_act = data.y_activity[:16]
        y_time = data.y_time[:16]

        def run():
            rng = np.random.default_rng(77)
            dual = dual_propagate(params, data.x[:16], 0.5, sampler, rng, train=True)
            _, comps = senn_losses(
                dual.first, dual.nap_logits_masked, dual.predicted,
                y_act, y_time, 1.0, 1e-4,
            )
            return dual, comps

        d1, c1 = run()
        d2, c2 = run()
        np.testing.assert_array_equal(d1.subset, d2.subset)
        np.testing.assert_array_equal(d1.masked_flat, d2.masked_flat)
        assert c1 == c2

    def test_baseline_model_rejected(self):
        spec, data, _, sampler = self._setup()
        base = init_model(spec.vocab_size, spec.k, seed=0)
        with pytest.raises(ValueError, match="explanation head"):
            dual_propagate(
                base, data.x[:4], 0.5, sampler, np.random.default_rng(0)
            )


class TestSennLosses:
    def _outputs(self, batch=6, seed=9):
        spec, data = _toy_spec_and_x()
        params = init_model(spec.vocab_size, spec.k, selfexplain=True, seed=seed)
        out = forward_graph(params, data.x[:batch], train=False)
        return out, data.y_activity[:batch], data.y_time[:batch]

    def test_zero_coefficients_reduce_to_baseline_loss(self):
        out, y_act, y_time = self._outputs()
        total, comps = senn_losses(out, None, None, y_act, y_time, 0.0, 0.0)
        assert comps["total"] == pytest.approx(comps["ce"] + comps["mae"], rel=1e-6)
        assert comps["faith"] == 0.0
        assert comps["card"] == 0.0

    def test_zero_scores_zero_cardinality(self):
        out, y_act, y_time = self._outputs()
        silenced = GraphOutputs(
            nap_logits=out.nap_logits,
            time_pred=out.time_pred,
            exp_scores=constant(np.zeros_like(out.exp_scores.value)),
        )
        _, comps = senn_losses(silenced, None, None, y_act, y_time, 0.0, 1.0)
        assert comps["card"] == 0.0

    def test_peaked_masked_probs_zero_faithfulness(self):
        out, y_act, y_time = self._outputs()
        predicted = np.argmax(out.nap_logits.value, axis=1)
        peaked = np.full_like(out.nap_logits.value, -100.0)
        peaked[np.arange(len(predicted)), predicted] = 100.0
        _, comps = senn_losses(
            out, constant(peaked), predicted, y_act, y_time, 1.0, 0.0
        )
        assert comps["faith"] < 1e-12

    def test_negative_coefficients_rejected(self):
        out, y_act, y_time = self._outputs()
        with pytest.raises(ValueError):
            senn_losses(out, None, None, y_act, y_time, -1.0, 0.0)


class TestSubsetMonotonicity:
    def test_adding_a_feature_rarely_hurts_sufficiency(self, toy_data, senn_ckpt):
        """Statistical sanity: growing S cannot tank the sufficiency rate."""
        spec, train, _, test_eval = toy_data
        params = senn_ckpt.params
        sampler = FeatureSampler.fit(spec, train.x)
        predict = make_predictor(params)
        forced = spec.forced_flat_mask()
        rng = np.random.default_rng(2024)

        n_inst = min(40, len(test_eval))
        out = forward_graph(params, test_eval.x[:n_inst], train=False)
        masks = subset_mask(out.exp_scores.value, 0.5, forced)

        base_ok = 0
        grown_ok = 0
        for i in range(n_inst):
            x = test_eval.x[i].reshape(-1)
            subset = np.flatnonzero(masks[i])
            outside = np.setdiff1d(np.arange(spec.n_features), subset)
            extra = rng.choice(outside) if outside.size else subset[0]
            grown = np.union1d(subset, [extra])
            seed = 1000 + i
            base_rate = estimate_precision(
                predict, x, subset, sampler, 60, np.random.default_rng(seed)
            )
            grown_rate = estimate_precision(
                predict, x, grown, sampler, 60, np.random.default_rng(seed)
            )
            base_ok += base_rate >= 0.95
            grown_ok += grown_rate >= 0.95
        assert grown_ok / n_inst >= base_ok / n_inst - 0.05
