"""Feature grid layout, normalization, and flat-index contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sennap.encoding import EncodingSpec, encode_dataset, fit_normalizers
from sennap.errors import EncodingError
from sennap.eventlog import MAX_TIMESTAMP, Case, Event, PrefixRecord, generate_prefixes

from conftest import build_log, make_markov_cases
from oracles import encode_dataset_loop, fit_normalizers_loop

MONDAY_MIDNIGHT = 345600  # 1970-01-05T00:00:00Z
DAY = 86400

# midnights and the seconds either side, the first and last seconds a log may hold, and any other
_STAMPS = st.one_of(
    st.integers(1, MAX_TIMESTAMP // DAY).flatmap(
        lambda day: st.sampled_from([day * DAY - 1, day * DAY, day * DAY + 1])
    ),
    st.sampled_from([0, 1, MAX_TIMESTAMP - 1, MAX_TIMESTAMP]),
    st.integers(0, MAX_TIMESTAMP),
)


@st.composite
def _prefix_records(draw):
    """(vocab, k, records): prefixes of random cases, in any order, repeats allowed."""
    vocab = ("a", "b", "c")
    k = draw(st.integers(1, 6))
    cases = []
    for i in range(draw(st.integers(1, 5))):
        stamps = sorted(draw(st.lists(_STAMPS, min_size=1, max_size=k)))
        labels = draw(st.lists(st.sampled_from(vocab), min_size=len(stamps), max_size=len(stamps)))
        cases.append(Case(f"c{i}", tuple(Event(f"c{i}", a, t) for a, t in zip(labels, stamps))))
    picks = draw(st.lists(st.tuples(
        st.integers(0, len(cases) - 1), st.integers(1, k), st.integers(0, len(vocab)),
        st.integers(0, 10**7),
    ), max_size=12))
    records = [
        PrefixRecord(cases[c], min(length, len(cases[c])), target, float(delta))
        for c, length, target, delta in picks
    ]
    return vocab, k, records


def _record(activities_with_stamps, case_id="c0", length=None, target=0, delta=0.0):
    from sennap.eventlog import PrefixRecord

    events = tuple(Event(case_id, a, ts) for a, ts in activities_with_stamps)
    case = Case(case_id, events)
    return PrefixRecord(case, length or len(events), target, delta)


def _spec(vocab=("a", "b", "c"), k=4, mean_first=1.0, mean_prev=1.0):
    return EncodingSpec(
        vocab=vocab, k=k, mean_since_first=mean_first, mean_since_prev=mean_prev
    )


class TestFitNormalizers:
    def test_all_zero_deltas_fall_back_to_one(self):
        record = _record([("a", 50), ("b", 50)])
        assert fit_normalizers([record]) == (1.0, 1.0)

    def test_mean_of_two_gaps(self):
        # gaps 100 s and 300 s after the first event -> mean since-prev =
        # (0 + 100 + 300) / 3; since-first = (0 + 100 + 400) / 3
        record = _record([("a", 0), ("b", 100), ("c", 400)])
        mean_first, mean_prev = fit_normalizers([record])
        assert mean_prev == pytest.approx((0 + 100 + 300) / 3)
        assert mean_first == pytest.approx((0 + 100 + 400) / 3)

    def test_toy_log_means_positive(self):
        log = build_log(make_markov_cases(30))
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
        mean_first, mean_prev = fit_normalizers(records)
        assert mean_first > 0
        assert mean_prev > 0

    def test_empty_rejected(self):
        with pytest.raises(EncodingError):
            fit_normalizers([])

    def test_sums_add_left_to_right(self):
        # whole seconds add exactly below 2**53, so only totals beyond it show the order
        rng = np.random.default_rng(0)
        cases = [
            Case(f"c{i}", tuple(Event(f"c{i}", "a", int(t))
                                for t in (0, rng.integers(0, MAX_TIMESTAMP), MAX_TIMESTAMP)))
            for i in range(30000)
        ]
        records = generate_prefixes(cases, {"a": 0}, 3)
        assert repr(fit_normalizers(records)) == repr(fit_normalizers_loop(records))


class TestEncodePrefix:
    def test_single_event_monday_midnight(self):
        spec = _spec()
        data = encode_dataset([_record([("a", MONDAY_MIDNIGHT)])], spec)
        assert data.x.shape == (1, 4, 8)
        np.testing.assert_array_equal(data.x[0, :3], 0.0)
        np.testing.assert_allclose(data.x[0, 3], [1, 0, 0, 1, 0, 0, 0, 0])
        assert data.prefix_lengths == (1,)

    def test_second_event_hand_computed(self):
        spec = _spec(mean_first=3600.0, mean_prev=3600.0)
        (x,) = encode_dataset(
            [_record([("a", MONDAY_MIDNIGHT), ("b", MONDAY_MIDNIGHT + 3600)])], spec
        ).x
        np.testing.assert_allclose(x[2], [1, 0, 0, 1, 0, 0, 0, 0])
        np.testing.assert_allclose(
            x[3],
            [0, 1, 0, 2, 1.0, 1.0, 3600 / 86400, 0.0],
            rtol=1e-6,
        )

    def test_full_length_prefix_has_no_dummy_rows(self):
        spec = _spec(k=3)
        stamps = [("a", 0), ("b", 10), ("c", 30)]
        data = encode_dataset([_record(stamps)], spec)
        assert data.prefix_lengths == (spec.k,)
        assert np.all(data.x[0, :, : spec.vocab_size].sum(axis=1) == 1.0)

    def test_unknown_activity_named_in_error(self):
        spec = _spec()
        with pytest.raises(EncodingError, match="mystery"):
            encode_dataset([_record([("mystery", 0)])], spec)

    def test_prefix_longer_than_k_rejected(self):
        spec = _spec(k=2)
        with pytest.raises(EncodingError, match="exceeds"):
            encode_dataset([_record([("a", 0), ("b", 1), ("c", 2)])], spec)

    def test_unknown_activity_after_the_prefix_is_not_read(self):
        record = _record([("a", 0), ("mystery", 10)], length=1)
        data = encode_dataset([record], _spec())
        np.testing.assert_array_equal(data.x[0, 3, :3], [1, 0, 0])

    def test_target_delta_normalized_by_since_prev_mean(self):
        spec = _spec(mean_prev=50.0)
        data = encode_dataset([_record([("a", 0)], target=1, delta=100.0)], spec)
        assert data.y_time[0] == pytest.approx(2.0)

    def test_weekday_and_midnight_in_unit_interval(self):
        log = build_log(make_markov_cases(25, seed=2))
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
        mean_first, mean_prev = fit_normalizers(records)
        spec = EncodingSpec(tuple(log.vocabulary), log.k, mean_first, mean_prev)
        data = encode_dataset(records, spec)
        va = spec.vocab_size
        assert np.all(data.x[:, :, va + 3] >= 0) and np.all(data.x[:, :, va + 3] <= 1)
        assert np.all(data.x[:, :, va + 4] >= 0) and np.all(data.x[:, :, va + 4] <= 1)

    def test_event_index_raw_and_one_hot_rows(self):
        log = build_log(make_markov_cases(25, seed=4))
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
        spec = EncodingSpec(tuple(log.vocabulary), log.k, 1.0, 1.0)
        va = spec.vocab_size
        for record in records[:50]:
            (x,) = encode_dataset([record], spec).x
            pad = spec.k - record.length
            hot = x[:, :va].sum(axis=1)
            np.testing.assert_array_equal(hot[:pad], 0.0)
            np.testing.assert_array_equal(hot[pad:], 1.0)
            np.testing.assert_array_equal(
                x[pad:, va], np.arange(1, record.length + 1)
            )

    def test_encoding_injective_on_distinct_prefixes(self):
        log = build_log(make_markov_cases(20, seed=8))
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
        spec = EncodingSpec(tuple(log.vocabulary), log.k, 100.0, 100.0)
        grids = {encode_dataset([r], spec).x.tobytes() for r in records}
        assert len(grids) == len(records)


class TestMatchesTheLoop:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn=_prefix_records())
    def test_same_bytes_as_the_per_prefix_loop(self, drawn):
        vocab, k, records = drawn
        means = (1.0, 1.0)
        if records:
            means = fit_normalizers(records)
            assert repr(means) == repr(fit_normalizers_loop(records))
        spec = EncodingSpec(vocab, k, *means)
        got, want = encode_dataset(records, spec), encode_dataset_loop(records, spec)
        for name in ("x", "y_activity", "y_time"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert (got.ids, got.prefix_lengths) == (want.ids, want.prefix_lengths)


class TestFlatIndexing:
    def test_round_trip_all_positions(self):
        spec = _spec(k=5)
        for row in range(spec.k):
            for col in range(spec.width):
                assert divmod(spec.flatten(row, col), spec.width) == (row, col)

    def test_forced_mask_hits_event_index_column_every_row(self):
        spec = _spec(k=3)
        mask = spec.forced_flat_mask()
        assert mask.sum() == spec.k
        for row in range(spec.k):
            assert mask[spec.flatten(row, spec.vocab_size)]

    def test_metadata_round_trip(self):
        spec = _spec(vocab=("x", "y"), k=7, mean_first=123.456, mean_prev=0.789)
        assert EncodingSpec.from_metadata(spec.to_metadata()) == spec

    @pytest.mark.parametrize(
        "key, value",
        [("mean_since_first", "nan"), ("mean_since_prev", "inf"), ("vocab", '["a", "a"]')],
        ids=["nan-mean", "inf-mean", "duplicate-label"],
    )
    def test_metadata_with_invalid_values_rejected(self, key, value):
        meta = _spec().to_metadata()
        meta[key] = value
        with pytest.raises(EncodingError):
            EncodingSpec.from_metadata(meta)
