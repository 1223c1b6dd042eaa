"""Parsing, splitting, and prefix-generation contracts."""

from __future__ import annotations

import codecs
import csv
import io
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sennap.cli import main
from sennap.encoding import EncodingSpec, encode_dataset, fit_normalizers
from sennap.errors import ConfigError, LogParseError, SennapError
from sennap.eventlog import (
    MAX_TIMESTAMP,
    ColumnMap,
    generate_prefixes,
    parse_csv,
    split_chronological,
)

from conftest import all_cases, build_log, make_markov_cases, write_markov_csv
from oracles import (
    Case,
    Event,
    cases_of,
    encode_dataset_loop,
    fit_normalizers_loop,
    generate_prefixes_loop,
    parse_csv_loop,
    split_chronological_loop,
)


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
        assert [e.activity for e in cases_of(log)[0].events] == ["a", "b", "c"]

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
        by_id = {c.case_id: c for c in cases_of(log)}
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
        assert [e.activity for e in cases_of(log)[0].events] == ["a", "b"]
        assert log.vocabulary == {"b": 0, "c": 1, "a": 2}
        # case-then-time order would give another vocabulary
        assert build_log(cases_of(log)).vocabulary == {"a": 0, "b": 1, "c": 2}

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
        stamps = [e.timestamp for e in cases_of(log)[0].events]
        assert stamps == [1578268800, 1578272400, 1578276000, 1578276000]

    def test_tie_on_timestamp_keeps_file_order(self, tmp_path):
        path = _write(
            tmp_path,
            "case,activity,timestamp\nc1,first,100\nc1,second,100\n",
        )
        log = parse_csv(path)
        assert [e.activity for e in cases_of(log)[0].events] == ["first", "second"]

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
        stamps = [e.timestamp for e in cases_of(parse_csv(path))[0].events]
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
        assert _fields(parse_csv(path)) == _fields(parse_csv(path))


def _fields(log):
    """Every field of a log, each array as its dtype, shape and bytes."""
    return [
        (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in vars(log).values()
    ]


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
        assert cases_of(log) == tuple(by_id[case_id] for case_id in case_order)
        assert log.vocabulary == {label: i for i, label in enumerate(labels)}
        assert (log.case_count, log.event_count) == (len(cases), len(rows))
        assert log.k == max(len(case) for case in cases)


@st.composite
def _messy_csvs(draw):
    """(CSV bytes, column map): interleaved rows, timestamp ties, epoch and ISO stamps.

    The ISO stamps are naive (`T` or space), `Z` or offset, some with 1 to 6
    fraction digits, which Python 3.10's `fromisoformat` partly refuses.  Rows
    may hold extra columns and spaces around labels; blank lines fall between
    them; the file may start with a BOM and end its lines in CRLF or LF.
    """
    names = draw(st.lists(st.text(alphabet="abcXYZ _-", min_size=1, max_size=6),
                          min_size=3, max_size=5, unique=True))
    columns = ColumnMap(*names[:3])
    header = draw(st.permutations(names))
    pool = draw(st.lists(_STAMPS, min_size=1, max_size=4))  # few stamps, so many ties
    rows = []
    for case_id in draw(st.lists(_LABELS, min_size=3, max_size=6, unique=True)):
        for _ in range(draw(st.integers(1, 5))):
            stamp = min(draw(st.sampled_from(pool)) + draw(st.sampled_from([0, 0, 1, 3600])),
                        MAX_TIMESTAMP)
            form = draw(st.sampled_from(["epoch", "naive", "space", "z", "offset"]))
            written = _written_stamp(stamp, form, draw(st.integers(-12 * 4, 14 * 4)) * 15)
            if form != "epoch" and draw(st.booleans()):
                fraction = draw(st.text(alphabet="0123456789", min_size=1, max_size=6))
                written = f"{written[:19]}.{fraction}{written[19:]}"
            cells = {columns.case: case_id, columns.activity: draw(_LABELS),
                     columns.timestamp: written}
            row = [cells.get(name) or draw(_LABELS) for name in header]
            rows.append([f" {cell} " if draw(st.booleans()) else cell for cell in row])
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    handle = io.StringIO(newline="")
    csv.writer(handle, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows(
        [header, *rows]
    )
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + handle.getvalue().encode("utf-8"), columns


def _bits(data):
    return [(a.dtype, a.shape, a.tobytes()) for a in (data.x, data.y_activity, data.y_time)] + [
        data.ids, data.prefix_lengths
    ]


_PURPOSES = ("train", "train", "eval")


def _columnar_pipeline(data, columns):
    log = parse_csv("messy.csv", columns, data=data)
    split = split_chronological(log)
    parts = (split.train, split.validation, split.test)
    prefixes = [generate_prefixes(part, log.vocabulary, log.k, purpose)
                for part, purpose in zip(parts, _PURPOSES)]
    means = fit_normalizers(prefixes[0])
    spec = EncodingSpec(tuple(log.vocabulary), log.k, *means)
    return dict(
        vocabulary=log.vocabulary, k=log.k, counts=(log.case_count, log.event_count),
        cases=cases_of(log), split=[[log.case_ids[i] for i in part.index] for part in parts],
        means=repr(means), data=[_bits(encode_dataset(p, spec)) for p in prefixes],
    )


def _loop_pipeline(data, columns):
    log = parse_csv_loop("messy.csv", columns, data=data)
    parts = split_chronological_loop(log)
    records = [generate_prefixes_loop(part, log.vocabulary, log.k, purpose)
               for part, purpose in zip(parts, _PURPOSES)]
    means = fit_normalizers_loop(records[0])
    spec = EncodingSpec(tuple(log.vocabulary), log.k, *means)
    return dict(
        vocabulary=log.vocabulary, k=log.k, counts=(log.case_count, log.event_count),
        cases=log.cases, split=[[case.case_id for case in part] for part in parts],
        means=repr(means), data=[_bits(encode_dataset_loop(r, spec)) for r in records],
    )


def _outcome(pipeline, *args, **kwargs):
    """The pipeline's result, or the type and message of the package error it raised."""
    try:
        return pipeline(*args, **kwargs)
    except SennapError as exc:
        return type(exc), str(exc)


class TestMatchesTheLoop:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn=_messy_csvs())
    def test_csv_to_datasets_gives_the_loops_bits(self, drawn):
        assert _outcome(_columnar_pipeline, *drawn) == _outcome(_loop_pipeline, *drawn)


@pytest.mark.parametrize("stamp", [
    "9999-12-31T23:59:58.999999", "9999-12-31T23:59:59.999999", "2020-01-06T00:00:00.999999",
    "2020-01-06T01:00:00.999999+01:00", "1970-01-01T00:00:00.5", "2020-01-06", " 1_000 ",
])
def test_stamp_parses_as_in_the_loop(stamp):
    """Fractions round as `datetime.timestamp()` rounds them: up, near the end of 9999."""
    data = f"case,activity,timestamp\nc1,a,{stamp}\n".encode("utf-8")
    got = _outcome(lambda: cases_of(parse_csv("log.csv", data=data)))
    assert got == _outcome(lambda: parse_csv_loop("log.csv", data=data).cases)


_HEADER = "case,activity,timestamp\n"
_RANGE = "1970-01-01T00:00:00Z..9999-12-31T23:59:59Z"


@pytest.mark.parametrize(
    "data, error, message",
    [
        (_HEADER + "c1,a,1\nc1,b\n", LogParseError, "{path}: line 3: too few columns"),
        (_HEADER + "c1,a,1\n\nc1,b\n", LogParseError, "{path}: line 4: too few columns"),
        (_HEADER + "c1,a,1\n ,b,2\n", LogParseError, "{path}: line 3: empty case id"),
        (_HEADER + "c1,a,1\nc1, ,2\n", LogParseError, "{path}: line 3: empty activity"),
        (_HEADER + "c1,a,1\nc1,b, \n", LogParseError, "line 3: empty timestamp"),
        (_HEADER + "c1,a,1\nc1,b,notatime\n", LogParseError,
         "line 3: timestamp 'notatime' is neither epoch seconds nor ISO-8601"),
        (_HEADER + "c1,a,1\nc1,b,12:00\n", LogParseError,
         "line 3: timestamp '12:00' is neither epoch seconds nor ISO-8601"),
        (_HEADER + "c1,a,1\nc1,b,-1\n", LogParseError,
         f"line 3: timestamp '-1' is not in {_RANGE}"),
        (_HEADER + "c1,a,1\nc1,b,1969-12-31T23:59:59Z\n", LogParseError,
         f"line 3: timestamp '1969-12-31T23:59:59Z' is not in {_RANGE}"),
        (_HEADER + "c1,a,notatime\nc1,,1\n", LogParseError,
         "line 2: timestamp 'notatime' is neither epoch seconds nor ISO-8601"),
        (_HEADER, LogParseError, "{path}: no event rows found"),
        (_HEADER + "\n\n", LogParseError, "{path}: no event rows found"),
        ("", LogParseError, "{path}: file is empty"),
        (b"case,activity,timestamp\nc1,a,1\nc1,\xff,2\n", LogParseError,
         "{path}: line 3: not valid UTF-8"),
        ("case,activity,when\nc1,a,1\n", ConfigError,
         "{path}: required column 'timestamp' (for timestamp) not found in header "
         "['case', 'activity', 'when']"),
    ],
    ids=["too-few-columns", "too-few-columns-after-blank", "empty-case-id", "empty-activity",
         "empty-timestamp", "bad-timestamp", "bad-timestamp-with-colon",
         "timestamp-before-epoch", "iso-timestamp-before-epoch", "first-bad-row-wins",
         "header-only", "header-and-blank-lines", "empty-file", "invalid-utf8-at-line-3",
         "missing-column"],
)
def test_malformed_log_gives_the_loops_one_error_line(tmp_path, capsys, data, error, message):
    path = tmp_path / "log.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    expected = message.format(path=path)
    with pytest.raises(error) as raised:
        parse_csv(path)
    assert str(raised.value) == expected
    assert _outcome(parse_csv_loop, path, None, data=path.read_bytes()) == (error, expected)
    assert main(["prepare", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


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
        order = np.concatenate([split.train.index, split.validation.index, split.test.index])
        starts = [cases[i].first_timestamp for i in order]
        assert starts == sorted(starts)
        all_ids = {cases[i].case_id for i in order}
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
        for part in ("train", "validation", "test"):
            np.testing.assert_array_equal(getattr(first, part).index, getattr(second, part).index)


class TestGeneratePrefixes:
    def test_eval_length_four_gives_three_prefixes(self):
        log = build_log([_case("c0", 4, 0)])
        prefixes = generate_prefixes(all_cases(log), log.vocabulary, log.k, "eval")
        assert prefixes.length.tolist() == [2, 3, 4]
        assert prefixes.target[-1] == len(log.vocabulary)
        assert prefixes.delta[-1] == 0.0

    def test_eval_skips_single_event_cases(self):
        log = build_log([_case("c0", 1, 0)])
        assert len(generate_prefixes(all_cases(log), log.vocabulary, log.k, "eval")) == 0

    def test_train_includes_length_one(self):
        log = build_log([_case("c0", 1, 0)])
        prefixes = generate_prefixes(all_cases(log), log.vocabulary, log.k, "train")
        assert len(prefixes) == 1
        assert prefixes.length[0] == 1
        assert prefixes.target[0] == len(log.vocabulary)

    def test_targets_are_next_activity_and_delta(self):
        case = Case("c0", (Event("c0", "a", 100), Event("c0", "b", 160)))
        log = build_log([case])
        prefixes = generate_prefixes(all_cases(log), log.vocabulary, log.k, "train")
        assert prefixes.target[0] == log.vocabulary["b"]
        assert prefixes.delta[0] == 60.0

    def test_eval_prefix_count_property(self):
        cases = make_markov_cases(60, seed=9)
        log = build_log(cases)
        prefixes = generate_prefixes(all_cases(log), log.vocabulary, log.k, "eval")
        expected = sum(max(len(case) - 1, 0) for case in cases)
        assert len(prefixes) == expected
