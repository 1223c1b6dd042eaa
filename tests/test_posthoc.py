"""Anchors-style search against analytic models and trained checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from sennap import runfiles
from sennap.errors import ConfigError
from sennap.model import INFER_CHUNK, make_predictor
from sennap.posthoc import (
    AnchorConfig,
    estimate_precision,
    extension_counts,
    greedy_anchor_search,
    round_counts,
)
from sennap.selfexplain import SAMPLE_UNIFORM, FeatureSampler

from oracles import round_estimates_per_event_row


def _uniform_sampler(n, lo=0.0, hi=1.0):
    return FeatureSampler(
        kinds=np.full(n, SAMPLE_UNIFORM, dtype=np.int8),
        lo=np.full(n, lo, dtype=np.float32),
        hi=np.full(n, hi, dtype=np.float32),
    )


def _threshold_model(feature=0, cut=0.5):
    def predict(X):
        X = np.atleast_2d(X)
        return (X[:, feature] > cut).astype(np.int64)

    return predict


def _constant_model(X):
    X = np.atleast_2d(X)
    return np.zeros(X.shape[0], dtype=np.int64)


class TestEstimatePrecision:
    def test_full_subset_is_exact(self):
        predict = _threshold_model()
        x = np.array([0.9, 0.1, 0.4], dtype=np.float32)
        rate = estimate_precision(
            predict, x, np.arange(3), _uniform_sampler(3), 50,
            np.random.default_rng(0),
        )
        assert rate == 1.0

    def test_constant_model_empty_subset(self):
        x = np.array([0.9, 0.1], dtype=np.float32)
        rate = estimate_precision(
            _constant_model, x, np.array([], dtype=int), _uniform_sampler(2), 50,
            np.random.default_rng(0),
        )
        assert rate == 1.0

    def test_threshold_model_analytic_half(self):
        # x0 = 0.9 -> class 1; resampling x0 ~ U[0,1] preserves it w.p. 0.5
        predict = _threshold_model()
        x = np.array([0.9, 0.3], dtype=np.float32)
        rate = estimate_precision(
            predict, x, np.array([], dtype=int), _uniform_sampler(2), 10_000,
            np.random.default_rng(7),
        )
        assert rate == pytest.approx(0.5, abs=0.02)

    def test_boolean_mask_subset_supported(self):
        predict = _threshold_model()
        x = np.array([0.9, 0.3], dtype=np.float32)
        mask = np.array([True, False])
        rate = estimate_precision(
            predict, x, mask, _uniform_sampler(2), 200, np.random.default_rng(1)
        )
        assert rate == 1.0


class TestGreedySearch:
    def test_threshold_model_found_in_one_round(self):
        # brute force over single-feature anchors: only {0} is sufficient
        predict = _threshold_model()
        sampler = _uniform_sampler(3)
        for feature in range(3):
            rate = estimate_precision(
                predict, np.array([0.9, 0.5, 0.5], dtype=np.float32),
                np.array([feature]), sampler, 2000, np.random.default_rng(feature),
            )
            assert (rate >= 0.95) == (feature == 0)
        result = greedy_anchor_search(
            predict,
            np.array([0.9, 0.5, 0.5], dtype=np.float32),
            AnchorConfig(n_samples=200, seed=5),
            sampler,
        )
        assert result.status == "found"
        assert result.indices == (0,)
        assert result.rounds == 1
        assert result.precision >= 0.95

    def test_constant_model_empty_anchor(self):
        result = greedy_anchor_search(
            _constant_model,
            np.array([0.4, 0.6], dtype=np.float32),
            AnchorConfig(n_samples=100, seed=1),
            _uniform_sampler(2),
        )
        assert result.status == "found"
        assert result.indices == ()
        assert result.rounds == 0

    def test_tiny_timeout_reports_timeout(self, toy_data, baseline_ckpt):
        spec, _, _, test_eval = toy_data
        predict = make_predictor(baseline_ckpt.params)
        sampler = FeatureSampler.fit(spec, test_eval.x)
        result = greedy_anchor_search(
            predict,
            test_eval.x[0].reshape(-1),
            AnchorConfig(n_samples=100, timeout_s=0.001, seed=2),
            sampler,
        )
        assert result.status == "timeout"

    def test_found_implies_threshold(self):
        rng = np.random.default_rng(11)

        def two_feature_model(X):
            X = np.atleast_2d(X)
            return ((X[:, 0] > 0.3) & (X[:, 1] > 0.4)).astype(np.int64)

        result = greedy_anchor_search(
            two_feature_model,
            np.array([0.9, 0.9, 0.2, 0.8], dtype=np.float32),
            AnchorConfig(n_samples=300, seed=3),
            _uniform_sampler(4),
        )
        assert result.status == "found"
        assert result.precision >= 0.95
        assert set(result.indices) == {0, 1}

    def test_ties_go_to_the_smallest_index(self):
        def either_model(X):
            X = np.atleast_2d(X)
            return ((X[:, 0] > 0.5) | (X[:, 1] > 0.5)).astype(np.int64)

        # features 0 and 1 each give precision exactly 1.0
        result = greedy_anchor_search(
            either_model,
            np.array([0.9, 0.9, 0.2], dtype=np.float32),
            AnchorConfig(n_samples=200, seed=4),
            _uniform_sampler(3),
        )
        assert result.status == "found"
        assert result.indices == (0,)

    def test_deterministic_under_seed(self):
        predict = _threshold_model(feature=1, cut=0.25)
        x = np.array([0.1, 0.8, 0.5], dtype=np.float32)
        config = AnchorConfig(n_samples=150, seed=9)
        a = greedy_anchor_search(predict, x, config, _uniform_sampler(3))
        b = greedy_anchor_search(predict, x, config, _uniform_sampler(3))
        assert a.indices == b.indices
        assert a.precision == b.precision
        assert a.samples_used == b.samples_used


def _round_subsets(spec):
    """The empty subset, one whose free count does not divide INFER_CHUNK, and step 0 taken."""
    empty = np.zeros(spec.n_features, dtype=bool)
    taken = empty.copy()
    taken[[3, spec.width + 1]] = True
    assert INFER_CHUNK % np.count_nonzero(~taken)
    step0 = empty.copy()
    step0[: spec.width] = True
    return [empty, taken, step0]


@pytest.fixture
def one_worker(monkeypatch):
    """Rounds run as one call after another on the caller, each a full chunk (W = 1)."""
    monkeypatch.setattr(runfiles, "thread_workers", lambda: 1)


@pytest.fixture
def two_workers(monkeypatch):
    """Rounds run on the caller and one helper (W = 2), whatever the CPU count."""
    monkeypatch.setattr(runfiles, "thread_workers", lambda: 2)


class TestCommonDraws:
    def test_round_estimates_equal_explicit_rows(self, toy_data, baseline_ckpt):
        """Each candidate's count is `estimate_precision` on the round's draws, times S."""
        spec, train, _, test_eval = toy_data
        predict = make_predictor(baseline_ckpt.params)
        sampler = FeatureSampler.fit(spec, train.x)
        x = test_eval.x[0].reshape(-1)
        target = int(predict(x[None])[0])
        subset = _round_subsets(spec)[1]
        columns = np.flatnonzero(~subset)[: 2 * spec.width]
        base = np.where(subset, x, sampler.draw(np.random.default_rng(8), 40))
        counts = extension_counts(predict, x, base, columns, target)
        for j, count in zip(columns, counts):
            extended = subset.copy()
            extended[j] = True
            assert count / 40 == estimate_precision(
                predict, x, extended, sampler, 40, np.random.default_rng(8), target=target
            )

    @pytest.mark.parametrize("taken", [0, 1, 2], ids=["empty", "two_taken", "step0_taken"])
    def test_per_draw_calls_match_the_per_event_row_round(
        self, toy_data, baseline_ckpt, monkeypatch, taken
    ):
        """A round's counts over S give the per-event-row round's estimates bit for bit, at any W."""
        spec, train, _, test_eval = toy_data
        predict = make_predictor(baseline_ckpt.params)
        sampler = FeatureSampler.fit(spec, train.x)
        x = test_eval.x[2].reshape(-1)
        target = int(predict(x[None])[0])
        subset = _round_subsets(spec)[taken]
        free = np.flatnonzero(~subset)
        S = 2 * (INFER_CHUNK // len(free)) + 3  # two full calls and a short one at W = 1
        base = np.where(subset, x, sampler.draw(np.random.default_rng(9), S))
        want = round_estimates_per_event_row(predict, x, subset, base, target, sampler)
        for w in (1, 2, 3):
            monkeypatch.setattr(runfiles, "thread_workers", lambda: w)
            kept, rows = round_counts(predict, x, base, free, target, stop=lambda: False)
            assert kept.dtype == np.int64 and rows == S * len(free)
            estimates = np.full(spec.n_features, -1.0)
            estimates[free] = kept / S
            assert estimates.tobytes() == want.tobytes(), w

    def test_one_base_major_call_per_group_of_draws(self, toy_data, baseline_ckpt, one_worker):
        spec, train, _, test_eval = toy_data
        inner = make_predictor(baseline_ckpt.params)
        sampler = FeatureSampler.fit(spec, train.x)
        calls = []

        def predict(flat):
            calls.append(np.array(flat))
            return inner(flat)

        n = spec.n_features
        g = INFER_CHUNK // n
        S = 2 * g + 3
        x = test_eval.x[1].reshape(-1)
        config = AnchorConfig(precision_threshold=1.0, n_samples=S, timeout_s=300.0, seed=3)
        result = greedy_anchor_search(predict, x, config, sampler, np.random.default_rng(21))
        # calls: the instance, round 0's estimate, which missed, then round 1
        assert (inner(calls[1]) != inner(calls[0])).any()
        replay = np.random.default_rng(21)
        sampler.draw(replay, S)
        base = sampler.draw(replay, S)
        round1 = calls[2:5]
        assert [c.shape for c in round1] == [(g * n, n), (g * n, n), (3 * n, n)]
        # each draw's n candidates are adjacent, candidate j with column j set to x_j
        rows = np.concatenate(round1).reshape(S, n, n)
        for j in range(n):
            expected = base.copy()
            expected[:, j] = x[j]
            np.testing.assert_array_equal(rows[:, j], expected)
        # round 2 has one feature fewer to score, so a call holds more draws
        g2 = INFER_CHUNK // (n - 1)
        assert calls[5].shape == (min(g2, S) * (n - 1), n)
        # every row submitted counts
        assert result.samples_used == sum(len(c) for c in calls[1:])

    def test_later_rounds_keep_the_subset(self, monkeypatch):
        for w, S in ((1, 50), (2, 700)):
            monkeypatch.setattr(runfiles, "thread_workers", lambda: w)
            calls = []

            def both_model(X):
                X = np.atleast_2d(X)
                calls.append(X.copy())  # list.append is atomic across threads
                return ((X[:, 0] > 0.5) & (X[:, 1] > 0.5)).astype(np.int64)

            x = np.array([0.9, 0.9, 0.9], dtype=np.float32)
            config = AnchorConfig(n_samples=S, timeout_s=20.0, seed=6)
            result = greedy_anchor_search(both_model, x, config, _uniform_sampler(3))
            assert result.status == "found" and result.indices == (0, 1)
            # the instance, round 0, then rounds 1 and 2 in groups of INFER_CHUNK // (W * free)
            # draws: at W = 1, S = 50 one call each, at W = 2, S = 700 three and two calls
            lengths = []
            for free in (3, 2):
                g = INFER_CHUNK // (w * free)
                lengths.append(sorted(min(g, S - lo) * free for lo in range(0, S, g)))
            first = calls[2 : 2 + len(lengths[0])]
            second = calls[2 + len(first) : 2 + len(first) + len(lengths[1])]
            assert sorted(len(c) for c in first) == lengths[0]
            assert sorted(len(c) for c in second) == lengths[1]
            second = np.concatenate(second)
            picked = 0 if np.all(second[:, 0] == x[0]) else 1
            np.testing.assert_array_equal(second[:, picked], x[picked])


class TestCommonDrawsOnTwoWorkers:
    """The call layout above at W = 2: groups of half the draws, in calls of any order."""

    def test_groups_of_draws_halve(self, toy_data, baseline_ckpt, two_workers):
        spec, train, _, test_eval = toy_data
        inner = make_predictor(baseline_ckpt.params)
        sampler = FeatureSampler.fit(spec, train.x)
        calls = []

        def predict(flat):
            calls.append(np.array(flat))  # list.append is atomic across threads
            return inner(flat)

        n = spec.n_features
        g = INFER_CHUNK // (2 * n)
        S = 2 * g + 3
        x = test_eval.x[1].reshape(-1)
        config = AnchorConfig(precision_threshold=1.0, n_samples=S, timeout_s=300.0, seed=3)
        result = greedy_anchor_search(predict, x, config, sampler, np.random.default_rng(21))
        replay = np.random.default_rng(21)
        sampler.draw(replay, S)
        base = sampler.draw(replay, S)
        # a round's groups all end before the next round starts, so round 1 is
        # calls[2:5], in whatever order the two threads made them
        with_x0 = base.copy()
        with_x0[:, 0] = x[0]
        firsts = [int(np.flatnonzero((with_x0 == c[0]).all(axis=1))[0]) for c in calls[2:5]]
        assert sorted(firsts) == [0, g, 2 * g]
        round1 = [c for _, c in sorted(zip(firsts, calls[2:5]), key=lambda pair: pair[0])]
        assert [c.shape for c in round1] == [(g * n, n), (g * n, n), (3 * n, n)]
        rows = np.concatenate(round1).reshape(S, n, n)
        for j in range(n):
            expected = base.copy()
            expected[:, j] = x[j]
            np.testing.assert_array_equal(rows[:, j], expected)
        g2 = INFER_CHUNK // (2 * (n - 1))
        round2 = [(min(g2, S - lo) * (n - 1), n) for lo in range(0, S, g2)]
        assert sorted(c.shape for c in calls[5 : 5 + len(round2)]) == sorted(round2)
        assert result.samples_used == sum(len(c) for c in calls[1:])


class TestAnchorsOnTrainedModel:
    def test_found_anchors_reverify_with_fresh_seed(self, toy_data, baseline_ckpt):
        """Regression guard: found => re-estimate >= threshold - 0.05 at 10x samples."""
        spec, train, _, test_eval = toy_data
        predict = make_predictor(baseline_ckpt.params)
        sampler = FeatureSampler.fit(spec, train.x)
        config = AnchorConfig(n_samples=60, timeout_s=20.0, seed=31)
        checked = 0
        for i in range(4):
            x = test_eval.x[i].reshape(-1)
            result = greedy_anchor_search(
                predict, x, config, sampler, np.random.default_rng(100 + i)
            )
            if result.status != "found":
                continue
            rate = estimate_precision(
                predict, x, np.array(result.indices, dtype=int), sampler,
                600, np.random.default_rng(5000 + i),
            )
            assert rate >= config.precision_threshold - 0.05
            checked += 1
        assert checked >= 1


class TestAnchorConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AnchorConfig(precision_threshold=0.0)
        with pytest.raises(ConfigError):
            AnchorConfig(timeout_s=0.0)
        with pytest.raises(ConfigError):
            AnchorConfig(n_samples=0)
        with pytest.raises(ConfigError, match="seed"):
            AnchorConfig(seed=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            AnchorConfig(timeout_s=value)
