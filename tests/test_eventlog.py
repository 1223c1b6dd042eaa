"""Parsing, splitting, and prefix-generation contracts."""

from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sennap.errors import ConfigError, LogParseError
from sennap.eventlog import (
    MAX_TIMESTAMP,
    Case,
    ColumnMap,
    Event,
    generate_prefixes,
    parse_csv,
    split_chronological,
)

from conftest import build_log, make_markov_cases, write_markov_csv


def _write(tmp_path, text, name="log.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCsv:
    def test_single_case_three_activities(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\n"
            "c1,a,100\n"
            "c1,b,200\n"
            "c1,c,300\n",
        )
        log = parse_csv(path)
        assert log.case_count == 1
        assert log.event_count == 3
        assert len(log.vocabulary) == 3
        assert log.k == 3
        assert [e.activity for e in log.cases[0].events] == ["a", "b", "c"]

    def test_interleaved_cases_are_separated_and_sorted(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\n"
            "c1,a,300\n"
            "c2,x,100\n"
            "c1,b,100\n"
            "c2,y,400\n",
        )
        log = parse_csv(path)
        assert log.case_count == 2
        by_id = {c.case_id: c for c in log.cases}
        assert [e.activity for e in by_id["c1"].events] == ["b", "a"]
        assert [e.activity for e in by_id["c2"].events] == ["x", "y"]

    def test_vocabulary_first_appearance_order(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\nc1,z,1\nc1,a,2\nc2,z,3\nc2,m,4\n",
        )
        log = parse_csv(path)
        assert log.vocabulary == {"z": 0, "a": 1, "m": 2}

    def test_vocabulary_follows_file_order_on_interleaved_rows(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\n"
            "c1,b,200\n"
            "c2,c,50\n"
            "c1,a,100\n",
        )
        log = parse_csv(path)
        assert [e.activity for e in log.cases[0].events] == ["a", "b"]
        assert log.vocabulary == {"b": 0, "c": 1, "a": 2}
        # case-then-time order would give another vocabulary
        assert build_log(log.cases).vocabulary == {"a": 0, "b": 1, "c": 2}

    def test_vocabulary_is_bijection_onto_range(self, tmp_path):
        write_markov_csv(tmp_path / "log.csv", 40, seed=5)
        log = parse_csv(tmp_path / "log.csv")
        indices = sorted(log.vocabulary.values())
        assert indices == list(range(len(log.vocabulary)))

    def test_timestamp_formats(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\n"
            "c1,a,2020-01-06T00:00:00\n"
            "c1,b,2020-01-06 01:00:00\n"
            "c1,c,2020-01-06T02:00:00Z\n"
            "c1,d,1578276000\n",
        )
        log = parse_csv(path)
        stamps = [e.timestamp for e in log.cases[0].events]
        assert stamps == [1578268800, 1578272400, 1578276000, 1578276000]

    def test_tie_on_timestamp_keeps_file_order(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\nc1,first,100\nc1,second,100\n",
        )
        log = parse_csv(path)
        assert [e.activity for e in log.cases[0].events] == ["first", "second"]

    def test_missing_column_names_it(self, tmp_path):
        path = _write(tmp_path, "case,activity,when\nc1,a,1\n")
        with pytest.raises(ConfigError, match="timestamp"):
            parse_csv(path)

    def test_column_map_remaps_names(self, tmp_path):
        path = _write(tmp_path, "CaseID,ActivityID,CompleteTimestamp\nc1,a,5\n")
        log = parse_csv(
            path,
            ColumnMap(case="CaseID", activity="ActivityID", timestamp="CompleteTimestamp"),
        )
        assert log.event_count == 1

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = _write(tmp_path, "case,activity,timestamp\nc1,a,1\nc1,b,notatime\n")
        with pytest.raises(LogParseError, match="line 3"):
            parse_csv(path)

    @pytest.mark.parametrize(
        "stamp",
        ["-1", "1969-12-31T23:59:59Z", "253402300800", "10000000000000",
         "9999-12-31T23:59:59-00:01", "1969-12-31T23:59:59.5Z"],
        ids=["negative-epoch", "iso-before-epoch", "epoch-after-9999", "epoch-year-318857",
             "iso-after-9999", "iso-half-second-before-epoch"],
    )
    def test_timestamp_out_of_range_reports_line(self, tmp_path, stamp):
        path = _write(tmp_path, f"case,activity,timestamp\nc1,a,1\nc1,b,{stamp}\n")
        with pytest.raises(LogParseError, match="line 3"):
            parse_csv(path)

    def test_fractional_seconds_round_down(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\n"
            "c1,a,1970-01-01T00:00:00.9Z\n"
            "c1,b,2020-01-06T00:00:00.999999\n"
            "c1,c,2020-01-06T01:00:00.5+01:00\n",
        )
        stamps = [e.timestamp for e in parse_csv(path).cases[0].events]
        assert stamps == [0, 1578268800, 1578268800]

    def test_empty_activity_rejected(self, tmp_path):
        path = _write(tmp_path, "case,activity,timestamp\nc1,,1\n")
        with pytest.raises(LogParseError, match="line 2"):
            parse_csv(path)

    def test_empty_log_rejected(self, tmp_path):
        path = _write(tmp_path, "case,activity,timestamp\n")
        with pytest.raises(LogParseError, match="no event rows"):
            parse_csv(path)

    def test_reparse_is_identical(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\nc1,a,3\nc2,b,1\nc1,c,2\nc3,a,9\n",
        )
        assert parse_csv(path) == parse_csv(path)


# labels the CSV module must quote; none starts or ends with a space, which parsing strips
_LABELS = st.text(alphabet='ab,"é ', min_size=1, max_size=4).filter(lambda s: s == s.strip())
_STAMPS = st.one_of(st.sampled_from([0, MAX_TIMESTAMP]), st.integers(0, MAX_TIMESTAMP))


def _written_stamp(stamp, form, offset_minutes):
    """`stamp` as epoch seconds or as one of the ISO-8601 forms parsing accepts."""
    if form == "epoch":
        return str(stamp)
    if form == "offset" and 0 <= stamp + 60 * offset_minutes <= MAX_TIMESTAMP:
        zone = timezone(timedelta(minutes=offset_minutes))
        return datetime.fromtimestamp(stamp, zone).isoformat()
    text = datetime.fromtimestamp(stamp, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    return {"naive": text, "space": text.replace("T", " ")}.get(form, text + "Z")


@st.composite
def _csv_logs(draw):
    """(header, rows, column map, cases): a log's rows, shuffled, under random columns."""
    names = draw(st.lists(st.text(alphabet="abcXYZ _-", min_size=1, max_size=6),
                          min_size=3, max_size=6, unique=True))
    names = draw(st.permutations(names))
    columns = ColumnMap(*names[:3])
    header = draw(st.permutations(names))
    ids = draw(st.lists(_LABELS, min_size=1, max_size=5, unique=True))
    cases, rows = [], []
    for case_id in ids:
        stamps = sorted(draw(st.lists(_STAMPS, min_size=1, max_size=5, unique=True)))
        events = tuple(Event(case_id, draw(_LABELS), stamp) for stamp in stamps)
        cases.append(Case(case_id, events))
        for event in events:
            written = _written_stamp(
                event.timestamp,
                draw(st.sampled_from(["epoch", "naive", "space", "z", "offset"])),
                draw(st.integers(-12 * 4, 14 * 4)) * 15,
            )
            cells = {columns.case: case_id, columns.activity: event.activity,
                     columns.timestamp: written}
            rows.append([cells[name] if name in cells else draw(_LABELS) for name in header])
    return header, draw(st.permutations(rows)), columns, cases


class TestParseCsvProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(drawn=_csv_logs())
    def test_parse_gives_back_the_written_cases(self, tmp_path_factory, drawn):
        header, rows, columns, cases = drawn
        path = tmp_path_factory.getbasetemp() / "property.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([header, *rows])
        log = parse_csv(path, columns)
        # cases and activities in order of first appearance in the file
        at = {name: i for i, name in enumerate(header)}
        case_order = list(dict.fromkeys(row[at[columns.case]] for row in rows))
        labels = list(dict.fromkeys(row[at[columns.activity]] for row in rows))
        by_id = {case.case_id: case for case in cases}
        assert log.cases == tuple(by_id[case_id] for case_id in case_order)
        assert log.vocabulary == {label: i for i, label in enumerate(labels)}
        assert (log.case_count, log.event_count) == (len(cases), len(rows))
        assert log.k == max(len(case) for case in cases)


def _case(case_id, n_events, start):
    events = tuple(
        Event(case_id, f"act{j % 3}", start + 10 * j) for j in range(n_events)
    )
    return Case(case_id, events)


class TestSplitChronological:
    def test_nine_cases_split_5_1_3(self):
        log = build_log([_case(f"c{i}", 2, start=1000 * i) for i in range(9)])
        split = split_chronological(log)
        assert (len(split.train), len(split.validation), len(split.test)) == (5, 1, 3)

    def test_three_cases_split_1_1_1(self):
        log = build_log([_case(f"c{i}", 2, start=1000 * i) for i in range(3)])
        split = split_chronological(log)
        assert (len(split.train), len(split.validation), len(split.test)) == (1, 1, 1)

    def test_partition_is_chronological(self):
        cases = [_case(f"c{i}", 3, start=1000 * (20 - i)) for i in range(20)]
        split = split_chronological(build_log(cases))
        starts = [c.first_timestamp for c in split.train + split.validation + split.test]
        assert starts == sorted(starts)
        all_ids = {c.case_id for c in split.train + split.validation + split.test}
        assert len(all_ids) == 20

    def test_fewer_than_three_cases_rejected(self):
        log = build_log([_case("c0", 2, 0), _case("c1", 2, 10)])
        with pytest.raises(ConfigError, match="3 cases"):
            split_chronological(log)

    def test_deterministic_across_runs(self, tmp_path):
        path = tmp_path / "log.csv"
        lines = ["case,activity,timestamp"]
        rng = np.random.default_rng(7)
        for i in range(12):
            start = int(rng.integers(0, 10_000))
            for j in range(3):
                lines.append(f"c{i},act{j},{start + j}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        first = split_chronological(parse_csv(path))
        second = split_chronological(parse_csv(path))
        assert first == second


class TestGeneratePrefixes:
    def test_eval_length_four_gives_three_prefixes(self):
        log = build_log([_case("c0", 4, 0)])
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "eval")
        assert [r.length for r in records] == [2, 3, 4]
        assert records[-1].target_activity == len(log.vocabulary)
        assert records[-1].target_delta == 0.0

    def test_eval_skips_single_event_cases(self):
        log = build_log([_case("c0", 1, 0)])
        assert generate_prefixes(log.cases, log.vocabulary, log.k, "eval") == []

    def test_train_includes_length_one(self):
        log = build_log([_case("c0", 1, 0)])
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
        assert len(records) == 1
        assert records[0].length == 1
        assert records[0].target_activity == len(log.vocabulary)

    def test_targets_are_next_activity_and_delta(self):
        case = Case("c0", (Event("c0", "a", 100), Event("c0", "b", 160)))
        log = build_log([case])
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "train")
        assert records[0].target_activity == log.vocabulary["b"]
        assert records[0].target_delta == 60.0

    def test_eval_prefix_count_property(self):
        cases = make_markov_cases(60, seed=9)
        log = build_log(cases)
        records = generate_prefixes(log.cases, log.vocabulary, log.k, "eval")
        expected = sum(max(len(case) - 1, 0) for case in cases)
        assert len(records) == expected
