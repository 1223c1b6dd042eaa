"""Metrics, verification, summaries, and explanation rendering."""

from __future__ import annotations

import numpy as np
import pytest

from sennap.encoding import Dataset, EncodingSpec
from sennap.errors import ConfigError
from sennap.evaluation import (
    Explanation,
    accuracy,
    explain_posthoc,
    explain_selfexplain,
    format_report,
    instance_rng,
    render_explanation,
    summarize,
    verify_explanations,
    verify_sufficiency,
)
from sennap.model import infer, init_model, make_predictor
from sennap.neural import subset_mask
from sennap.posthoc import AnchorConfig
from sennap.selfexplain import SAMPLE_UNIFORM, FeatureSampler


def _uniform_sampler(n):
    return FeatureSampler(
        kinds=np.full(n, SAMPLE_UNIFORM, dtype=np.int8),
        lo=np.zeros(n, dtype=np.float32),
        hi=np.ones(n, dtype=np.float32),
    )


def _constant_model(X):
    return np.zeros(np.atleast_2d(X).shape[0], dtype=np.int64)


class TestAccuracy:
    def test_matches_hand_count_for_uniform_model(self, toy_data):
        spec, _, _, test_eval = toy_data
        params = init_model(spec.vocab_size, spec.k, seed=1)
        for _, p in params.named_parameters():
            p.value = np.zeros_like(p.value)
        # zeroed model emits uniform probabilities, so argmax is always class 0
        expected = float(np.mean(test_eval.y_activity == 0))
        assert accuracy(params, test_eval) == pytest.approx(expected)

    def test_trained_model_beats_majority_class(self, toy_data, baseline_ckpt):
        spec, _, _, test_eval = toy_data
        majority = max(
            float(np.mean(test_eval.y_activity == c))
            for c in range(spec.vocab_size + 1)
        )
        assert accuracy(baseline_ckpt.params, test_eval) > majority

    def test_model_scored_on_its_own_predictions_is_perfect(self, toy_data, baseline_ckpt):
        spec, _, _, test_eval = toy_data
        own = make_predictor(baseline_ckpt.params)(
            test_eval.x.reshape(len(test_eval), -1)
        )
        relabeled = Dataset(
            test_eval.x, own, test_eval.y_time, test_eval.ids,
            test_eval.prefix_lengths,
        )
        assert accuracy(baseline_ckpt.params, relabeled) == 1.0

    def test_empty_set_rejected(self, toy_data):
        spec, train, _, _ = toy_data
        params = init_model(spec.vocab_size, spec.k, seed=1)
        empty = Dataset(train.x[:0], train.y_activity[:0], train.y_time[:0], (), ())
        with pytest.raises(ConfigError):
            accuracy(params, empty)


class TestVerifySufficiency:
    def test_full_subset_sufficient_at_any_delta(self):
        x = np.array([0.9, 0.2], dtype=np.float32)

        def flip_model(X):
            X = np.atleast_2d(X)
            return (X.sum(axis=1) > 1.0).astype(np.int64)

        ok, rate = verify_sufficiency(
            flip_model, x, [0, 1], _uniform_sampler(2), delta=1.0,
            rng=np.random.default_rng(0),
        )
        assert ok and rate == 1.0

    def test_constant_model_empty_subset_sufficient(self):
        ok, rate = verify_sufficiency(
            _constant_model, np.array([0.5], dtype=np.float32), [],
            _uniform_sampler(1), rng=np.random.default_rng(0),
        )
        assert ok and rate == 1.0

    def test_monotone_in_delta_with_common_draws(self):
        def half_model(X):
            X = np.atleast_2d(X)
            return (X[:, 0] > 0.5).astype(np.int64)

        x = np.array([0.8, 0.3], dtype=np.float32)
        flags = {}
        for delta in (0.3, 0.6, 0.9):
            ok, rate = verify_sufficiency(
                half_model, x, [], _uniform_sampler(2), delta=delta,
                n_samples=400, rng=np.random.default_rng(123),
            )
            flags[delta] = ok
            assert rate == pytest.approx(0.5, abs=0.1)
        assert flags[0.3] and not flags[0.6] and not flags[0.9]

    def test_delta_validated(self):
        with pytest.raises(ConfigError):
            verify_sufficiency(
                _constant_model, np.zeros(1, dtype=np.float32), [],
                _uniform_sampler(1), delta=0.0,
            )


class TestExplainSelfexplain:
    def test_records_have_forced_features_and_timings(self, toy_data, senn_ckpt):
        spec, _, _, test_eval = toy_data
        explanations = explain_selfexplain(
            senn_ckpt.params, test_eval, spec, tau=0.5, limit=12
        )
        assert len(explanations) == 12
        forced = set(np.flatnonzero(spec.forced_flat_mask()))
        for expl in explanations:
            assert expl.method == "selfexplain"
            assert expl.status == "found"
            assert forced <= set(expl.indices)
            assert expl.size == len(expl.indices)
            assert len(expl.scores) == len(expl.indices)
            assert expl.wall_time_s >= 0.0

    def test_scores_equal_a_fresh_batch_one_pass(self, toy_data, senn_ckpt):
        # the kernel weights are built once per call; every instance must still
        # score exactly as a lone `infer` call that builds its own
        spec, _, _, test_eval = toy_data
        explanations = explain_selfexplain(
            senn_ckpt.params, test_eval, spec, tau=0.5, limit=12
        )
        for i, expl in enumerate(explanations):
            scores = infer(senn_ckpt.params, test_eval.x[i : i + 1]).scores[0]
            assert expl.indices == tuple(
                int(j) for j in np.flatnonzero(subset_mask(scores, 0.5, spec.forced_flat_mask()))
            )
            assert np.array_equal(np.array(expl.scores, dtype=scores.dtype),
                                  scores[list(expl.indices)])

    def test_baseline_checkpoint_rejected(self, toy_data, baseline_ckpt):
        spec, _, _, test_eval = toy_data
        with pytest.raises(ConfigError, match="explanation head"):
            explain_selfexplain(baseline_ckpt.params, test_eval, spec, limit=2)


class TestExplainPosthoc:
    def test_posthoc_records_and_thread_determinism(self, toy_data, baseline_ckpt):
        # generous timeout and a modest threshold keep the wall clock out of
        # the picture; determinism is only promised modulo the cutoff
        spec, train, _, test_eval = toy_data
        sampler = FeatureSampler.fit(spec, train.x)
        config = AnchorConfig(
            precision_threshold=0.8, n_samples=30, timeout_s=300.0, seed=17
        )
        serial = explain_posthoc(
            baseline_ckpt.params, test_eval, config, sampler, limit=2
        )
        threaded = explain_posthoc(
            baseline_ckpt.params, test_eval, config, sampler, limit=2, threads=2
        )
        assert [e.instance_id for e in serial] == [e.instance_id for e in threaded]
        for a, b in zip(serial, threaded):
            assert a.status == "found"
            assert a.indices == b.indices
            assert a.status == b.status
            assert a.rounds is not None and a.samples_used >= config.n_samples
            # equal in everything but wall time: precision, rounds, samples_used
            ra, rb = a.to_record(), b.to_record()
            assert ra.pop("wall_time_s") >= 0.0 and rb.pop("wall_time_s") >= 0.0
            assert ra == rb

    def test_timeout_record_keeps_the_best_subset_apart(self, toy_data, baseline_ckpt):
        spec, train, _, test_eval = toy_data
        config = AnchorConfig(n_samples=20, timeout_s=1e-9, seed=2)
        (expl,) = explain_posthoc(
            baseline_ckpt.params, test_eval, config, FeatureSampler.fit(spec, train.x), limit=1
        )
        assert expl.status == "timeout"
        assert expl.indices == () and expl.precision is None
        assert expl.best_indices == () and 0.0 <= expl.best_precision <= 1.0
        assert expl.rounds == 1 and expl.samples_used == config.n_samples
        assert Explanation.from_record(expl.to_record()) == expl
        assert summarize([expl]).n_existing == 0


class TestExplanationRecords:
    def test_older_records_still_read(self):
        old = {
            "instance": "c#2", "method": "posthoc", "status": "found", "size": 1,
            "indices": [4], "scores": None, "wall_time_s": 0.5, "precision": 0.97,
            "sufficient": None,
        }
        expl = Explanation.from_record(old)
        assert expl.indices == (4,) and expl.precision == 0.97
        assert expl.rounds is None and expl.best_indices is None
        assert expl.to_record() == old

    def test_selfexplain_records_carry_no_search_cost(self):
        expl = Explanation("c#1", "selfexplain", (1, 2), (0.7, 0.9), 0.001)
        record = expl.to_record()
        assert "rounds" not in record and "best_indices" not in record
        assert Explanation.from_record(record) == expl


class TestVerifyExplanations:
    def test_flags_filled_and_timeouts_skipped(self, toy_data, senn_ckpt):
        spec, train, _, test_eval = toy_data
        sampler = FeatureSampler.fit(spec, train.x)
        explanations = explain_selfexplain(
            senn_ckpt.params, test_eval, spec, limit=6
        )
        explanations.append(
            Explanation(
                instance_id=test_eval.ids[0], method="selfexplain", indices=(),
                scores=None, wall_time_s=1.0, status="timeout",
            )
        )
        verified = verify_explanations(
            senn_ckpt.params, test_eval, explanations, sampler,
            delta=0.95, n_samples=30, seed=5,
        )
        for expl in verified[:-1]:
            assert expl.sufficient in (True, False)
            assert 0.0 <= expl.precision <= 1.0
        assert verified[-1].sufficient is None

    def test_thread_determinism(self, toy_data, senn_ckpt):
        # the threads share one predictor; each instance's draws come from its own rng
        spec, train, _, test_eval = toy_data
        sampler = FeatureSampler.fit(spec, train.x)
        explanations = explain_selfexplain(senn_ckpt.params, test_eval, spec, limit=8)
        explanations.insert(3, Explanation(
            instance_id=test_eval.ids[9], method="selfexplain", indices=(),
            scores=None, wall_time_s=1.0, status="timeout",
        ))
        serial, threaded = (
            verify_explanations(senn_ckpt.params, test_eval, explanations, sampler,
                                delta=0.95, n_samples=30, seed=5, threads=threads)
            for threads in (1, 2)
        )
        assert [e.sufficient is None for e in serial] == [i == 3 for i in range(9)]
        assert threaded == serial

    def test_unknown_instance_rejected(self, toy_data, senn_ckpt):
        spec, train, _, test_eval = toy_data
        sampler = FeatureSampler.fit(spec, train.x)
        ghost = Explanation(
            instance_id="nope#9", method="selfexplain", indices=(0,),
            scores=(1.0,), wall_time_s=0.0,
        )
        with pytest.raises(ConfigError, match="nope#9"):
            verify_explanations(
                senn_ckpt.params, test_eval, [ghost], sampler, n_samples=5
            )

    def test_negative_seed_rejected(self, toy_data, senn_ckpt):
        spec, train, _, test_eval = toy_data
        sampler = FeatureSampler.fit(spec, train.x)
        explanations = explain_selfexplain(senn_ckpt.params, test_eval, spec, limit=1)
        with pytest.raises(ConfigError, match="seed"):
            verify_explanations(
                senn_ckpt.params, test_eval, explanations, sampler, n_samples=5, seed=-1
            )

    def test_instance_rng_reproducible(self):
        a = instance_rng(3, "case1#4").random(5)
        b = instance_rng(3, "case1#4").random(5)
        c = instance_rng(3, "case1#5").random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestInferenceLeavesBatchNorm:
    def test_buffers_bitwise_unchanged(self, toy_data, senn_ckpt):
        spec, train, _, test_eval = toy_data
        params = senn_ckpt.params
        before = [(name, buf.copy()) for name, buf in params.named_buffers()]
        make_predictor(params)(test_eval.x[:5].reshape(5, -1))
        accuracy(params, test_eval)
        explanations = explain_selfexplain(params, test_eval, spec, limit=3)
        verify_explanations(
            params, test_eval, explanations, FeatureSampler.fit(spec, train.x),
            n_samples=10,
        )
        for (name, old), (_, new) in zip(before, params.named_buffers()):
            assert old.tobytes() == new.tobytes(), name


def _records(n_total, n_timeout, n_sufficient, method="posthoc"):
    records = []
    for i in range(n_total):
        if i < n_timeout:
            records.append(
                Explanation(f"i{i}", method, (), None, 1.0, status="timeout")
            )
        else:
            sufficient = i < n_timeout + n_sufficient
            records.append(
                Explanation(
                    f"i{i}", method, (0, 1), None, 0.5,
                    status="found", sufficient=sufficient, precision=0.9,
                )
            )
    return records


class TestSummarize:
    def test_spec_arithmetic_example(self):
        report = summarize(_records(200, 50, 30))
        assert report.existing_rate == pytest.approx(0.75)
        assert report.sufficient_among_existing == pytest.approx(0.20)
        assert report.sufficient_overall == pytest.approx(0.15)

    def test_selfexplain_always_exists(self):
        report = summarize(_records(40, 0, 25, method="selfexplain"))
        assert report.existing_rate == 1.0

    def test_identity_overall_equals_product(self):
        for args in ((10, 3, 2), (50, 0, 50), (7, 7, 0), (33, 5, 11)):
            report = summarize(_records(*args))
            product = report.existing_rate * report.sufficient_among_existing
            assert abs(report.sufficient_overall - product) < 1e-3

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_mixed_methods_rejected(self):
        mixed = _records(2, 0, 1) + _records(2, 0, 1, method="selfexplain")
        with pytest.raises(ConfigError, match="mixed"):
            summarize(mixed)

    def test_timeouts_excluded_from_size_and_time(self):
        report = summarize(_records(4, 2, 1))
        assert report.mean_size == 2.0
        assert report.mean_time_s == 0.5


class TestRendering:
    def _spec(self):
        return EncodingSpec(("a", "b"), 3, 10.0, 20.0)

    def _dataset(self, spec):
        """One row: a prefix of two events after one padding row."""
        x = np.zeros((1, 3, 7), dtype=np.float32)
        # rows 1-2 real: activities a then b
        x[0, 1, 0] = 1.0
        x[0, 1, 2] = 1.0  # event index 1
        x[0, 2, 1] = 1.0
        x[0, 2, 2] = 2.0  # event index 2
        x[0, 2, 3] = 1.5  # since-first (normalized)
        x[0, 2, 4] = 0.25
        x[0, 2, 5] = 0.5  # since midnight fraction
        x[0, 2, 6] = 1.0 / 6.0  # Tuesday
        return Dataset(x, np.array([1]), np.zeros(1, np.float32), ("c0#2",), (2,))

    def test_forced_only_explanation_lists_event_indices(self):
        spec = self._spec()
        data = self._dataset(spec)
        forced = tuple(int(i) for i in np.flatnonzero(spec.forced_flat_mask()))
        expl = Explanation("c0#2", "selfexplain", forced, None, 0.001)
        text = render_explanation(expl, data, 0, spec)
        assert "event 1 (a)" in text
        assert "event 2 (b)" in text
        assert "+ event_index = 1" in text
        assert "+ event_index = 2" in text
        assert "- activity[a]" in text  # non-selected features marked excluded

    def test_dummy_row_feature_hidden_but_counted(self):
        spec = self._spec()
        data = self._dataset(spec)
        dummy_flat = spec.flatten(0, 3)  # row 0 is padding for this instance
        expl = Explanation("c0#2", "selfexplain", (dummy_flat,), None, 0.001)
        text = render_explanation(expl, data, 0, spec)
        assert expl.size == 1
        assert "size=1" in text
        assert "event 0" not in text
        assert "(1 selected dummy-event features not shown)" in text

    def test_full_subset_marks_every_real_feature(self):
        spec = self._spec()
        data = self._dataset(spec)
        every = tuple(range(spec.n_features))
        text = render_explanation(
            Explanation("c0#2", "selfexplain", every, None, 0.001), data, 0, spec
        )
        for line in text.splitlines():
            if line.startswith("  "):
                assert line.lstrip().startswith("+")

    def test_values_denormalized(self):
        spec = self._spec()
        data = self._dataset(spec)
        every = tuple(range(spec.n_features))
        text = render_explanation(
            Explanation("c0#2", "selfexplain", every, None, 0.001), data, 0, spec
        )
        assert "+ since_first = 15.0 s" in text      # 1.5 * mean 10
        assert "+ since_prev = 5.0 s" in text        # 0.25 * mean 20
        assert "+ since_midnight = 43200 s" in text  # 0.5 * 86400
        assert "+ weekday = Tue" in text


class TestFormatReport:
    def test_contains_method_rows_and_config_echo(self):
        reports = [
            summarize(_records(20, 5, 5), accuracy=0.7, delta=0.9, n_samples=64, seed=3),
            summarize(_records(20, 0, 15, method="selfexplain"), accuracy=0.72,
                      delta=0.9, n_samples=64, seed=3),
        ]
        text = format_report(reports)
        assert "posthoc" in text and "selfexplain" in text
        assert "delta=0.9" in text and "samples=64" in text
        assert "0.700" in text and "0.720" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            format_report([])
