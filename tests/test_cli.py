"""End-to-end command-line pipeline on a synthetic log."""

from __future__ import annotations

import codecs
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sennap
from sennap import runfiles, training
from sennap.cli import COMMANDS, OPTIONS, Prepared, Settings, build_parser, main
from sennap.evaluation import accuracy
from sennap.eventlog import ColumnMap
from sennap.posthoc import AnchorConfig
from sennap.runfiles import map_in_workers, read_manifest, write_manifest
from sennap.training import TrainConfig, load_checkpoint, save_checkpoint

from conftest import write_markov_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full pipeline artifacts shared by the checks below (tiny budgets)."""
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "log.csv"
    write_markov_csv(csv_path, n_cases=60, seed=23)
    out = root / "runs"
    base = ["--data", str(csv_path), "--out", str(out), "--seed", "5"]
    assert main(["prepare", *base]) == 0
    assert (
        main(
            ["train", "--out", str(out), "--seed", "5", "--mode", "baseline",
             "--lr", "0.002", "--epochs", "4", "--patience", "10"]
        )
        == 0
    )
    assert (
        main(
            ["train", "--out", str(out), "--seed", "5", "--mode", "selfexplain",
             "--xi", "1e-5", "--epochs", "4", "--patience", "10"]
        )
        == 0
    )
    assert (
        main(
            ["explain", "--out", str(out), "--seed", "5",
             "--method", "selfexplain", "--limit", "6"]
        )
        == 0
    )
    assert (
        main(
            ["explain", "--out", str(out), "--seed", "5", "--method", "posthoc",
             "--limit", "2", "--timeout", "15", "--samples", "25",
             "--delta", "0.8"]
        )
        == 0
    )
    assert (
        main(
            ["verify", "--out", str(out), "--seed", "5",
             "--method", "selfexplain", "--samples", "25"]
        )
        == 0
    )
    assert (
        main(
            ["verify", "--out", str(out), "--seed", "5", "--method", "posthoc",
             "--samples", "25"]
        )
        == 0
    )
    assert main(["report", "--out", str(out)]) == 0
    return csv_path, out


def _copy_runs(workdir, tmp_path):
    """A private copy of the shared pipeline artifacts."""
    _, source = workdir
    out = tmp_path / "runs"
    shutil.copytree(source, out)
    return out


def _tree_bytes(directory):
    """Every file under `directory`, by relative path, with its bytes."""
    return {
        p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()
    }


def _assert_one_error_line(capsys, expected=None):
    """Check stderr holds a single error line, `expected` when given; returns stdout."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert expected is None or err[0] == expected, err
    return captured.out


# the one error line an invalid --delta or --samples gives, whichever command reads it
_VERIFICATION_ERRORS = {
    ("--delta", "0"): "error: delta must lie in (0, 1], got 0.0",
    ("--delta", "nan"): "error: delta must lie in (0, 1], got nan",
    ("--samples", "0"): "error: samples must be >= 1, got 0",
}


def _write_helpdesk_shaped_csv(path, n_cases):
    """A random log with the Helpdesk log's shape: 14 activities, cases of 3 to 15 events."""
    rng = np.random.default_rng(0)
    rows = ["case,activity,timestamp"]
    for case in range(n_cases):
        ts = 1_600_000_000 + case * 7200
        # the first case has the longest length and every activity
        length = 15 if case == 0 else int(rng.integers(3, 16))
        for event in range(length):
            ts += int(rng.integers(300, 3600))
            activity = event % 14 if case == 0 else rng.integers(14)
            rows.append(f"c{case},a{activity},{ts}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestPipelineArtifacts:
    def test_prepare_manifest_records_log_shape(self, workdir):
        _, out = workdir
        manifest = read_manifest(out / "prepare" / "manifest.txt")
        assert manifest["cases"] == "60"
        assert int(manifest["activities"]) == 5
        assert int(manifest["k"]) >= 3
        assert float(manifest["mean_since_prev"]) > 0

    def test_prepare_idempotent(self, workdir, tmp_path):
        csv_path, out = workdir
        again = tmp_path / "again"
        args = ["prepare", "--data", str(csv_path), "--out", str(again), "--seed", "5"]
        assert main(args) == 0
        first = _tree_bytes(again / "prepare")
        # the split and the encoding are derived from the checked log, so only the manifest is kept
        assert list(first) == [Path("manifest.txt")]
        assert main(args) == 0
        assert _tree_bytes(again / "prepare") == first
        assert (out / "prepare" / "manifest.txt").read_bytes() == first[Path("manifest.txt")]

    def test_damaged_split_and_encoding_files_are_ignored(self, workdir, tmp_path):
        # earlier releases wrote both beside the manifest; the split and the
        # encoding now come from the checked log, so neither file is read
        _, source = workdir
        out = _copy_runs(workdir, tmp_path)
        (out / "prepare" / "split.txt").write_bytes(b"train\tnocase\n\xff\n")
        (out / "prepare" / "encoding.txt").write_text('vocab=["x"]\nk=abc\n', encoding="utf-8")
        assert main(["verify", "--out", str(out), "--seed", "5", "--method", "selfexplain",
                     "--samples", "25"]) == 0
        assert main(["report", "--out", str(out)]) == 0
        for directory in ("verification", "report"):
            # the summary names the checkpoint by its path under the run directory
            got = {name: data.replace(bytes(out), bytes(source))
                   for name, data in _tree_bytes(out / directory).items()}
            assert got == _tree_bytes(source / directory), directory

        def without_times(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in records]

        assert main(["explain", "--out", str(out), "--seed", "5", "--method", "selfexplain",
                     "--limit", "6"]) == 0
        records = Path("explanations", "selfexplain.jsonl")
        assert without_times(out / records) == without_times(source / records)

    def test_checkpoints_exist_and_load(self, workdir):
        _, out = workdir
        for mode in ("baseline", "selfexplain"):
            ckpt = load_checkpoint(out / "models" / f"{mode}.ckpt")
            assert ckpt.config.mode == mode

    def test_train_same_seed_is_idempotent(self, workdir, tmp_path, capsys):
        csv_path, _ = workdir

        def train(out):
            assert main(["train", "--out", str(out), "--seed", "5", "--mode", "baseline",
                         "--epochs", "2", "--patience", "5"]) == 0
            printed = capsys.readouterr().out.splitlines()
            return printed, (out / "models" / "baseline.ckpt").read_bytes()

        out, fresh = tmp_path / "runs", tmp_path / "fresh"
        for directory in (out, fresh):
            assert main(["prepare", "--data", str(csv_path), "--out", str(directory),
                         "--seed", "5"]) == 0
        capsys.readouterr()
        lines, first = train(out)
        assert len(lines) == 3 and not any("(stored)" in line for line in lines)
        (cell,) = (out / "models" / "cells").glob("*.ckpt")
        assert cell.read_bytes() == first
        manifest = (out / "models" / "baseline.manifest.txt").read_bytes()

        # a rerun loads the fit from the cell store and prints the same history
        again, second = train(out)
        assert second == first
        assert again == [*lines[:-1], lines[-1] + " (stored)"]
        assert (out / "models" / "baseline.manifest.txt").read_bytes() == manifest

        # a fresh output directory is a store miss: the fit runs again, to the same bytes
        fresh_lines, third = train(fresh)
        assert third == first and fresh_lines[:-1] == lines[:-1]
        assert "(stored)" not in fresh_lines[-1]

        # a truncated stored fit is fitted again and replaced by the same bytes
        cell.write_bytes(first[:1000])
        damaged_lines, fourth = train(out)
        assert fourth == first and damaged_lines == lines
        assert cell.read_bytes() == first
        assert not list(cell.parent.glob(".*.tmp"))

    def test_train_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # on this log, fits that use the calling process's BLAS threads give
        # different bytes under one and two threads, in both modes
        csv_path = tmp_path / "log.csv"
        _write_helpdesk_shaped_csv(csv_path, 40)
        env = {**os.environ, "PYTHONPATH": str(Path(sennap.__file__).resolve().parents[1])}
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"runs{threads}"
            assert main(["prepare", "--data", str(csv_path), "--out", str(out),
                         "--seed", "1"]) == 0
            for mode in ("baseline", "selfexplain"):
                done = subprocess.run(
                    [sys.executable, "-m", "sennap.cli", "train", "--out", str(out), "--seed", "1",
                     "--mode", mode, "--epochs", "3"],
                    env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
                    timeout=300,
                )
                assert done.returncode == 0, done.stderr
            runs.append(_tree_bytes(out / "models"))
        assert runs[0] == runs[1]
        assert len(runs[0]) == 6  # two checkpoints, two manifests, two stored cells

    def test_train_worker_fallback_gives_the_in_process_bytes(self, tmp_path, monkeypatch):
        # where no OpenBLAS is found to pin, `train` fits in a one-BLAS-thread worker;
        # on this log an unpinned in-process fit gives other bytes
        csv_path = tmp_path / "log.csv"
        _write_helpdesk_shaped_csv(csv_path, 40)
        pinned = runfiles._openblas() is not None
        workers = []

        def spy(job, task, items):
            workers.append(task.__name__)
            return map_in_workers(job, task, items)

        monkeypatch.setattr(training, "map_in_workers", spy)
        runs = []
        for found in (True, False):
            if not found:
                monkeypatch.setattr(runfiles, "_openblas", lambda: None)
            out = tmp_path / f"runs-{found}"
            assert main(["prepare", "--data", str(csv_path), "--out", str(out)]) == 0
            for mode in ("baseline", "selfexplain"):
                assert main(["train", "--out", str(out), "--seed", "1", "--mode", mode,
                             "--epochs", "3"]) == 0
            runs.append(_tree_bytes(out / "models"))
        assert workers == ["_store_cell"] * (2 if pinned else 4)
        assert runs[0] == runs[1] and len(runs[0]) == 6

    def test_gridsearch_over_scored_cells_starts_no_pool(self, workdir, tmp_path, monkeypatch):
        out = _copy_runs(workdir, tmp_path)
        argv = ["gridsearch", "--out", str(out), "--seed", "5", "--grid", "small",
                "--epochs", "1", "--eval-limit", "2", "--samples", "10"]
        assert main(argv) == 0
        grid = out / "models" / "grid_small"
        fresh = {name: (grid / name).read_bytes() for name in ("result.jsonl", "selected.ckpt")}
        (grid / "result.jsonl").unlink()
        (grid / "selected.ckpt").unlink()

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(runfiles, "ProcessPoolExecutor", no_pool)
        records = {r: r.stat().st_ino for r in (out / "models" / "cells").glob("*.json")}
        assert len(records) == 10
        assert main(argv) == 0
        assert {name: (grid / name).read_bytes() for name in fresh} == fresh
        assert {r: r.stat().st_ino for r in (out / "models" / "cells").glob("*.json")} == records

    def test_explanation_records_shape(self, workdir):
        _, out = workdir
        lines = (out / "explanations" / "selfexplain.jsonl").read_text().splitlines()
        assert len(lines) == 6
        record = json.loads(lines[0])
        assert record["method"] == "selfexplain"
        assert record["size"] == len(record["indices"])
        assert record["status"] == "found"

    def test_verification_summary_identity(self, workdir):
        _, out = workdir
        summary = read_manifest(out / "verification" / "selfexplain.summary.txt")
        existing = float(summary["existing_pct"])
        among = float(summary["sufficient_of_existing_pct"])
        overall = float(summary["sufficient_overall_pct"])
        assert existing == 100.0
        assert abs(overall - existing * among / 100.0) < 0.1

    def test_report_files(self, workdir):
        _, out = workdir
        text = (out / "report" / "report.txt").read_text()
        assert "selfexplain" in text and "posthoc" in text
        rows = [json.loads(l) for l in (out / "report" / "report.jsonl").read_text().splitlines()]
        assert {r["method"] for r in rows} <= {"selfexplain", "posthoc"}
        for r in rows:
            assert r["accuracy"] is not None

    def test_report_accuracy_from_the_verified_checkpoint(self, workdir, tmp_path):
        _, source = workdir
        out = tmp_path / "runs"
        shutil.copytree(source, out)
        test_set = Prepared(out).dataset("test", "eval")
        # a model that always predicts one class, with an accuracy unlike the default's
        other = load_checkpoint(out / "models" / "selfexplain.ckpt")
        default_acc = accuracy(other.params, test_set)
        head = other.params.act_head
        head.W.value = np.zeros_like(head.W.value)
        for cls in range(head.b.value.size):
            head.b.value = np.eye(head.b.value.size, dtype=np.float32)[cls]
            if accuracy(other.params, test_set) != default_acc:
                break
        other_path = tmp_path / "other.ckpt"
        save_checkpoint(other, other_path)
        assert main(["verify", "--out", str(out), "--seed", "5", "--method", "selfexplain",
                     "--samples", "5", "--checkpoint", str(other_path)]) == 0
        summary = read_manifest(out / "verification" / "selfexplain.summary.txt")
        assert summary["checkpoint"] == str(other_path)
        # a summary written before the path was recorded falls back to the default
        posthoc_summary = out / "verification" / "posthoc.summary.txt"
        kept = [l for l in posthoc_summary.read_text().splitlines()
                if not l.startswith("checkpoint=")]
        posthoc_summary.write_text("\n".join(kept) + "\n")
        assert main(["report", "--out", str(out)]) == 0

        rows = {json.loads(l)["method"]: json.loads(l)
                for l in (out / "report" / "report.jsonl").read_text().splitlines()}
        assert rows["selfexplain"]["accuracy"] == accuracy(other.params, test_set)
        assert rows["selfexplain"]["accuracy"] != default_acc
        baseline = load_checkpoint(out / "models" / "baseline.ckpt")
        assert rows["posthoc"]["accuracy"] == accuracy(baseline.params, test_set)

    def test_copied_run_directory_reports_on_its_own_models(self, workdir, tmp_path, monkeypatch):
        source = _copy_runs(workdir, tmp_path)
        summaries = sorted((source / "verification").glob("*.summary.txt"))
        recorded = {p.name: read_manifest(p)["checkpoint"] for p in summaries}
        assert recorded == {"posthoc.summary.txt": "models/baseline.ckpt",
                            "selfexplain.summary.txt": "models/selfexplain.ckpt"}
        copy = tmp_path / "copy"
        shutil.copytree(source, copy)
        shutil.rmtree(source)
        assert main(["report", "--out", str(copy)]) == 0
        report = _tree_bytes(copy / "report")
        # older summaries record the path as `verify` was given it, from the working directory
        monkeypatch.chdir(tmp_path)
        for name, path in recorded.items():
            summary = copy / "verification" / name
            write_manifest(summary, {**read_manifest(summary), "checkpoint": f"copy/{path}"})
        assert main(["report", "--out", "copy"]) == 0
        assert _tree_bytes(copy / "report") == report

    def test_failed_write_leaves_the_previous_file(self, workdir, tmp_path, monkeypatch, capsys):
        out = _copy_runs(workdir, tmp_path)
        records = out / "explanations" / "selfexplain.jsonl"
        before = records.read_bytes()
        dumps, dumped = json.dumps, []

        def fail_on_third_record(obj, **kwargs):
            if isinstance(obj, dict) and "instance" in obj:
                dumped.append(obj)
                if len(dumped) == 3:
                    raise RuntimeError("the third record")
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", fail_on_third_record)
        with pytest.raises(RuntimeError, match="the third record"):
            main(["explain", "--out", str(out), "--seed", "5", "--method", "selfexplain",
                  "--limit", "6"])
        monkeypatch.undo()
        assert records.read_bytes() == before
        assert not list(records.parent.glob(".*.tmp"))

        # the disk fills halfway through a manifest's write
        manifest = out / "prepare" / "manifest.txt"
        before = manifest.read_bytes()
        csv_path, _ = workdir
        path_open = Path.open

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        def open_on_full_disk(path, mode="r", *args, **kwargs):
            handle = path_open(path, mode, *args, **kwargs)
            return FullDisk(handle) if "w" in mode and "manifest" in path.name else handle

        monkeypatch.setattr(Path, "open", open_on_full_disk)
        capsys.readouterr()
        code = main(["prepare", "--data", str(csv_path), "--out", str(out), "--seed", "6"])
        monkeypatch.undo()
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {manifest}: cannot write (No space left on device)"]
        assert manifest.read_bytes() == before
        assert not list(manifest.parent.glob(".*.tmp"))

    def test_verify_reads_the_event_log_once(self, workdir, tmp_path, monkeypatch):
        csv_path, _ = workdir
        out = _copy_runs(workdir, tmp_path)
        original, reads = runfiles.read_bytes, []

        def counted(path, *args, **kwargs):
            reads.append(Path(path))
            return original(path, *args, **kwargs)

        # every module that imported the reader by name
        for name, module in list(sys.modules.items()):
            if name.startswith("sennap") and getattr(module, "read_bytes", None) is original:
                monkeypatch.setattr(module, "read_bytes", counted)
        assert main(["verify", "--out", str(out), "--seed", "5", "--method", "selfexplain",
                     "--samples", "25"]) == 0
        assert reads.count(csv_path) == 1


class TestCliErrors:
    def test_missing_data_flag(self, tmp_path):
        assert main(["prepare", "--out", str(tmp_path)]) == 1

    def test_missing_column_named(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("case,activity,when\nc1,a,1\n", encoding="utf-8")
        code = main(["prepare", "--data", str(csv_path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "timestamp" in captured.err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_data_path(self, tmp_path, capsys, kind):
        path = tmp_path / "log.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"case,activity,timestamp\nc1,\xe9t\xe9,1\n")
        code = main(["prepare", "--data", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0], err

    def test_prepare_and_train_on_a_log_with_a_bom_and_crlf(self, tmp_path):
        """As Excel's "CSV UTF-8" writes it: the BOM is skipped, the digest covers it."""
        plain = tmp_path / "plain.csv"
        write_markov_csv(plain, n_cases=30, seed=4)
        lines = plain.read_bytes().replace(b"\r\n", b"\n").split(b"\n")
        excel = tmp_path / "excel.csv"
        excel.write_bytes(codecs.BOM_UTF8 + b"\r\n".join(lines))
        for path in (plain, excel):
            assert main(["prepare", "--data", str(path), "--out", str(tmp_path / path.stem)]) == 0
        manifests = [read_manifest(tmp_path / name / "prepare" / "manifest.txt")
                     for name in ("plain", "excel")]
        assert manifests[1]["data.sha256"] == hashlib.sha256(excel.read_bytes()).hexdigest()
        for manifest in manifests:
            del manifest["data"], manifest["data.sha256"]
        assert manifests[0] == manifests[1]
        assert main(["train", "--out", str(tmp_path / "excel"), "--mode", "baseline",
                     "--epochs", "1", "--patience", "1"]) == 0

    def test_baseline_with_cardinality_weight(self, workdir, capsys):
        _, out = workdir
        code = main(["train", "--out", str(out), "--mode", "baseline", "--xi", "1e-9"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "posthoc", "--delta", "0"],
            ["--method", "posthoc", "--delta", "nan"],
            ["--method", "posthoc", "--samples", "0"],
            ["--method", "posthoc", "--timeout", "0"],
            ["--method", "selfexplain", "--limit", "0"],
            ["--method", "posthoc", "--limit", "0"],
        ],
        ids=["delta", "delta-nan", "samples", "timeout", "limit-selfexplain", "limit-posthoc"],
    )
    def test_invalid_explain_flags(self, workdir, tmp_path, capsys, flags):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "explanations")
        code = main(["explain", "--out", str(out), *flags])
        assert code == 1
        _assert_one_error_line(capsys, _VERIFICATION_ERRORS.get(tuple(flags[-2:])))
        assert _tree_bytes(out / "explanations") == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--mode", "selfexplain", "--xi", "nan"],
            ["train", "--mode", "selfexplain", "--lam", "nan"],
            ["train", "--mode", "baseline", "--lr", "inf"],
            ["explain", "--method", "posthoc", "--timeout", "nan"],
            ["explain", "--method", "posthoc", "--timeout", "inf"],
        ],
        ids=["xi-nan", "lam-nan", "lr-inf", "timeout-nan", "timeout-inf"],
    )
    def test_non_finite_values_rejected(self, workdir, tmp_path, capsys, argv):
        out = _copy_runs(workdir, tmp_path)
        before = {d: _tree_bytes(out / d) for d in ("models", "explanations")}
        code = main([*argv, "--out", str(out)])
        assert code == 1
        _assert_one_error_line(capsys)
        assert {d: _tree_bytes(out / d) for d in before} == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--mode", "baseline", "--seed", "-1"],
            ["gridsearch", "--grid", "small", "--epochs", "1", "--seed", "-1"],
            ["explain", "--method", "posthoc", "--seed", "-1"],
            ["verify", "--method", "selfexplain", "--seed", "-1"],
            ["explain", "--method", "posthoc", "--threads", "0"],
            ["explain", "--method", "selfexplain", "--threads", "-1"],
            ["verify", "--method", "posthoc", "--threads", "0"],
        ],
        ids=["train-seed", "gridsearch-seed", "explain-seed", "verify-seed",
             "explain-threads", "explain-selfexplain-threads", "verify-threads"],
    )
    def test_negative_seed_and_threads_rejected(self, workdir, tmp_path, capsys, argv):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out)
        code = main([*argv, "--out", str(out)])
        assert code == 1
        assert "grid cell" not in _assert_one_error_line(capsys)
        assert _tree_bytes(out) == before

    @pytest.mark.parametrize(
        "flags", [["--samples", "0"], ["--delta", "0"], ["--delta", "nan"]],
        ids=["samples", "delta", "delta-nan"],
    )
    def test_invalid_verify_flags(self, workdir, tmp_path, capsys, flags):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "verification")
        code = main(["verify", "--out", str(out), "--method", "selfexplain", *flags])
        assert code == 1
        _assert_one_error_line(capsys, _VERIFICATION_ERRORS[tuple(flags)])
        assert _tree_bytes(out / "verification") == before

    def test_threads_above_the_workers_are_warned_of(self, workdir, tmp_path, capsys, monkeypatch):
        out = _copy_runs(workdir, tmp_path)
        monkeypatch.setattr("sennap.cli.thread_workers", lambda: 1)
        assert main(["verify", "--out", str(out), "--method", "selfexplain", "--seed", "5",
                     "--samples", "5", "--threads", "2"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: --threads 2 runs 1 at a time: one thread per CPU that OpenBLAS may use, "
            "and one without OpenBLAS"
        ]
        # a self-explaining explain runs no threads, so its --threads is not warned of
        assert main(["explain", "--out", str(out), "--method", "selfexplain", "--limit", "5",
                     "--threads", "2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags",
        [["--samples", "0"], ["--delta", "0"], ["--delta", "nan"], ["--eval-limit", "0"]],
        ids=["samples", "delta", "delta-nan", "eval-limit"],
    )
    def test_invalid_gridsearch_flags_rejected_before_training(
        self, workdir, tmp_path, capsys, flags
    ):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "models")
        code = main(["gridsearch", "--out", str(out), "--grid", "small",
                     "--epochs", "1", *flags])
        assert code == 1
        expected = _VERIFICATION_ERRORS.get(tuple(flags))
        assert "grid cell" not in _assert_one_error_line(capsys, expected)
        assert _tree_bytes(out / "models") == before

    def test_prepare_negative_seed_rejected(self, workdir, tmp_path, capsys):
        csv_path, _ = workdir
        out = tmp_path / "o"
        code = main(["prepare", "--data", str(csv_path), "--out", str(out), "--seed", "-1"])
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("manifest-key", "manifest.txt"),
            ("data-digest", "data.sha256"),
            ("data-shifted", "changed after `prepare`"),
        ],
    )
    def test_damaged_prepare_directory(self, workdir, tmp_path, capsys, damage, named):
        out = _copy_runs(workdir, tmp_path)
        prep = out / "prepare"
        if damage == "manifest-key":
            manifest = read_manifest(prep / "manifest.txt")
            del manifest["columns.case"]
            write_manifest(prep / "manifest.txt", manifest)
        elif damage == "data-digest":
            manifest = read_manifest(prep / "manifest.txt")
            del manifest["data.sha256"]
            write_manifest(prep / "manifest.txt", manifest)
        elif damage == "data-shifted":
            # the same cases and split, every event 7 h later
            header, *rows = Path(read_manifest(prep / "manifest.txt")["data"]).read_text().splitlines()
            shifted = [f"{case},{activity},{int(stamp) + 7 * 3600}"
                       for case, activity, stamp in (row.split(",") for row in rows)]
            csv_path = tmp_path / "shifted.csv"
            csv_path.write_text("\n".join([header, *shifted]) + "\n", encoding="utf-8")
            manifest = read_manifest(prep / "manifest.txt")
            manifest["data"] = str(csv_path)
            write_manifest(prep / "manifest.txt", manifest)
        for argv in (["train", "--mode", "baseline", "--epochs", "1"],
                     ["explain", "--method", "selfexplain"]):
            code = main([*argv, "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err

    @pytest.mark.parametrize(
        "damage, argv, named",
        [
            ("summary-file", ["report"], "selfexplain.summary.txt"),
            ("summary-number", ["report"], "selfexplain.summary.txt"),
            ("explanation-json", ["verify", "--method", "selfexplain"], "jsonl: line 2"),
            ("explanation-key", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("explanation-utf8", ["verify", "--method", "selfexplain"], "jsonl: line 3"),
            ("explanation-list", ["verify", "--method", "selfexplain"], "jsonl: line 2"),
            ("index-large", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("index-negative", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("index-float", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("index-bool", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("best-index-large", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("verified-index-large", ["report"], "jsonl: line 1"),
            ("explanation-missing", ["verify", "--method", "selfexplain"], "selfexplain.jsonl"),
            ("explanation-directory", ["verify", "--method", "selfexplain"], "selfexplain.jsonl"),
            ("repeated-instance", ["verify", "--method", "selfexplain"], "jsonl: line 7"),
            ("instance-list", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("status-unknown", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("scores-short", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("verified-repeated-instance", ["report"], "jsonl: line 7"),
            ("verified-sufficient-string", ["report"], "jsonl: line 1"),
            ("verified-sufficient-number", ["report"], "jsonl: line 1"),
            ("verified-wall-time-nan", ["report"], "jsonl: line 1"),
            ("wall-time-negative", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("wall-time-infinite", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("verified-precision-large", ["report"], "jsonl: line 1"),
            ("verified-precision-nan", ["report"], "jsonl: line 1"),
            ("best-precision-negative", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("rounds-negative", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("rounds-float", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
            ("samples-used-bool", ["verify", "--method", "selfexplain"], "jsonl: line 1"),
        ],
        ids=["summary-file", "summary-number", "explanation-json", "explanation-key",
             "explanation-utf8", "explanation-list", "index-large", "index-negative", "index-float",
             "index-bool", "best-index-large", "verified-index-large",
             "explanation-missing", "explanation-directory",
             "repeated-instance", "instance-list", "status-unknown", "scores-short",
             "verified-repeated-instance", "verified-sufficient-string",
             "verified-sufficient-number", "verified-wall-time-nan", "wall-time-negative",
             "wall-time-infinite", "verified-precision-large", "verified-precision-nan",
             "best-precision-negative", "rounds-negative", "rounds-float", "samples-used-bool"],
    )
    def test_damaged_run_files(self, workdir, tmp_path, capsys, damage, argv, named):
        out = _copy_runs(workdir, tmp_path)
        summary = out / "verification" / "selfexplain.summary.txt"
        records = out / "explanations" / "selfexplain.jsonl"
        lines = records.read_text().splitlines()
        if damage == "summary-file":
            summary.unlink()
        elif damage == "summary-number":
            entries = read_manifest(summary)
            entries["delta"] = "abc"
            write_manifest(summary, entries)
        elif damage == "explanation-json":
            lines[1] = lines[1][:-1]
            records.write_text("\n".join(lines) + "\n")
        elif damage == "explanation-key":
            first = json.loads(lines[0])
            del first["method"]
            lines[0] = json.dumps(first)
            records.write_text("\n".join(lines) + "\n")
        elif damage == "explanation-utf8":
            records.write_bytes("\n".join(lines[:2]).encode() + b"\n\xff\n")
        elif damage == "explanation-list":
            lines[1] = "[1, 2]"
            records.write_text("\n".join(lines) + "\n")
        elif damage.startswith("explanation-"):  # missing or directory
            records.unlink()
            if damage == "explanation-directory":
                records.mkdir()
        elif damage.endswith("repeated-instance"):
            if damage.startswith("verified"):
                records = out / "verification" / "selfexplain.jsonl"
                lines = records.read_text().splitlines()
            assert len(lines) == 6
            records.write_text("\n".join([*lines, lines[0]]) + "\n")
        elif damage == "scores-short":
            first = json.loads(lines[0])
            first["scores"] = first["scores"][:-1]
            lines[0] = json.dumps(first)
            records.write_text("\n".join(lines) + "\n")
        else:
            key, value = {
                "index-large": ("indices", [1000000]),
                "index-negative": ("indices", [-1]),
                "index-float": ("indices", [1.5]),
                "index-bool": ("indices", [True]),
                "best-index-large": ("best_indices", [1000000]),
                "verified-index-large": ("indices", [1000000]),
                "instance-list": ("instance", ["case0001#2"]),
                "status-unknown": ("status", "weird"),
                "verified-sufficient-string": ("sufficient", "false"),
                "verified-sufficient-number": ("sufficient", 1),
                "verified-wall-time-nan": ("wall_time_s", float("nan")),
                "wall-time-negative": ("wall_time_s", -0.5),
                "wall-time-infinite": ("wall_time_s", float("inf")),
                "verified-precision-large": ("precision", 1.5),
                "verified-precision-nan": ("precision", float("nan")),
                "best-precision-negative": ("best_precision", -0.1),
                "rounds-negative": ("rounds", -1),
                "rounds-float": ("rounds", 2.0),
                "samples-used-bool": ("samples_used", True),
            }[damage]
            if damage.startswith("verified"):
                records = out / "verification" / "selfexplain.jsonl"
                lines = records.read_text().splitlines()
            first = json.loads(lines[0])
            first[key] = value
            lines[0] = json.dumps(first)
            records.write_text("\n".join(lines) + "\n")
        code = main([*argv, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err

    def test_small_grid_again_loads_every_cell(self, workdir, tmp_path, capsys):
        out = _copy_runs(workdir, tmp_path)
        argv = ["gridsearch", "--out", str(out), "--seed", "5", "--grid", "small",
                "--epochs", "1", "--eval-limit", "2", "--samples", "10"]
        # the store already holds the shared run's two `train` fits
        trained = set((out / "models" / "cells").glob("*.ckpt"))
        assert len(trained) == 2
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("grid cell")]
            runs.append((lines, _tree_bytes(out / "models" / "grid_small")))
        assert len(runs[0][0]) == 10 and not any(l.endswith("(stored)") for l in runs[0][0])
        assert len(runs[1][0]) == 10 and all(l.endswith(" (stored)") for l in runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert len(set((out / "models" / "cells").glob("*.ckpt")) - trained) == 10
        assert not list((out / "models").rglob("cell_*.ckpt"))

    def test_output_directory_under_a_file(self, workdir, tmp_path, capsys):
        csv_path, _ = workdir
        blocker = tmp_path / "notadir"
        blocker.write_text("a file, not a directory\n")
        out = blocker / "runs"
        assert main(["prepare", "--data", str(csv_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(out) in err[0], err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_directory_where_the_records_go(self, workdir, tmp_path, capsys):
        out = _copy_runs(workdir, tmp_path)
        records = out / "explanations" / "selfexplain.jsonl"
        records.unlink()
        records.mkdir()
        code = main(["explain", "--out", str(out), "--seed", "5", "--method", "selfexplain",
                     "--limit", "6"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(records) in err[0], err
        assert records.is_dir() and not any(records.iterdir())
        assert not list(records.parent.glob(".*.tmp"))

    def test_checkpoint_directory(self, workdir, tmp_path, capsys):
        out = _copy_runs(workdir, tmp_path)
        code = main(["explain", "--out", str(out), "--method", "selfexplain",
                     "--checkpoint", str(out / "models")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(out / "models") in err[0], err

    def test_failed_fit_leaves_no_worker_cell_or_environment_change(
        self, workdir, tmp_path, capsys
    ):
        # one Adam step at lr 1e30 overflows the weights; with one epoch of one
        # batch only the validation loss is non-finite
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "models")
        environ = dict(os.environ)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--out", str(out), "--mode", "baseline", "--lr", "1e30",
                         "--epochs", "1", "--batch-size", "1000"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "gave a finite validation loss" in err[0]
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ
        # no cell stored, no checkpoint or manifest written
        assert _tree_bytes(out / "models") == before

    def test_diverging_fit_prints_only_its_error_line(self, workdir, tmp_path):
        # the worker's stderr is the command's, so its numpy warnings would show
        out = _copy_runs(workdir, tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(sennap.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "sennap.cli", "train", "--out", str(out), "--mode", "baseline",
             "--lr", "1e30", "--epochs", "1", "--batch-size", "1000"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_config_errors_start_no_worker(self, workdir, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(runfiles, "ProcessPoolExecutor", no_pool)
        out = _copy_runs(workdir, tmp_path)
        for argv in (["--out", str(out), "--mode", "selfexplain", "--xi", "nan"],
                     ["--out", str(out), "--mode", "baseline", "--seed", "-1"],
                     ["--out", str(tmp_path / "none"), "--mode", "baseline"]):
            assert main(["train", *argv]) == 1
            _assert_one_error_line(capsys)
        # with valid settings the fit runs in this process under the OpenBLAS pin,
        # and reaches the pool only where no OpenBLAS is found
        valid = ["train", "--out", str(out), "--mode", "baseline", "--epochs", "1"]
        if runfiles._openblas() is not None:
            assert main(valid) == 0
        monkeypatch.setattr(runfiles, "_openblas", lambda: None)
        with pytest.raises(AssertionError, match="worker pool"):
            main(valid)

    def test_unprepared_directory(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "none"), "--mode", "baseline"]) == 1

    def test_missing_checkpoint(self, workdir, tmp_path):
        csv_path, _ = workdir
        out = tmp_path / "fresh"
        assert main(["prepare", "--data", str(csv_path), "--out", str(out)]) == 0
        assert main(["explain", "--out", str(out), "--method", "selfexplain"]) == 1

    def test_report_without_verification(self, workdir, tmp_path, capsys):
        csv_path, _ = workdir
        out = tmp_path / "fresh2"
        assert main(["prepare", "--data", str(csv_path), "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 1
        assert "verify" in capsys.readouterr().err

    def test_report_example_outside_the_test_split(self, workdir, tmp_path, capsys):
        out = _copy_runs(workdir, tmp_path)
        path = out / "verification" / "selfexplain.jsonl"
        records = [json.loads(l) for l in path.read_text().splitlines()]
        for record in records:
            record["instance"] = "nocase#1"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", "--out", str(out)]) == 1
        _assert_one_error_line(capsys)

    def test_spec_mismatch_between_checkpoint_and_data(self, workdir, tmp_path, capsys):
        # checkpoint trained on the 60-case log applied to a different log
        _, out = workdir
        other_csv = tmp_path / "other.csv"
        rows = ["case,activity,timestamp"]
        for i in range(6):
            rows += [f"k{i},alpha,{100 * i}", f"k{i},beta,{100 * i + 10}",
                     f"k{i},gamma,{100 * i + 20}"]
        other_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        other_out = tmp_path / "other_runs"
        assert main(["prepare", "--data", str(other_csv), "--out", str(other_out)]) == 0
        code = main(
            ["explain", "--out", str(other_out), "--method", "selfexplain",
             "--checkpoint", str(out / "models" / "selfexplain.ckpt"), "--limit", "2"]
        )
        assert code == 1
        assert "spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, named",
        [
            ("relabelled", "activity label {d} (checkpoint 'd', data 'x')"),
            ("extra-activity", "activity count |A| (checkpoint 5, data 6)"),
            ("slower", "mean_since_first (checkpoint {first!r}, data {twice_first!r}); "
                       "mean_since_prev (checkpoint {prev!r}, data {twice_prev!r})"),
        ],
        ids=["relabelled", "extra-activity", "slower"],
    )
    def test_checkpoints_of_other_data_refused(self, workdir, tmp_path, capsys, change, named):
        # the run directory prepared again from a changed copy of its log: `verify`
        # and `report` refuse the models trained on the old one, naming what differs
        csv_path, _ = workdir
        out = _copy_runs(workdir, tmp_path)
        manifest = read_manifest(out / "prepare" / "manifest.txt")
        header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
        events = [row.split(",") for row in rows]
        if change == "relabelled":
            events = [[case, "x" if act == "d" else act, ts] for case, act, ts in events]
        elif change == "extra-activity":
            events[-1][1] = "z"
        else:  # every time gap twice as long
            origin = int(events[0][2])
            events = [[case, act, str(2 * int(ts) - origin)] for case, act, ts in events]
        changed = tmp_path / "changed.csv"
        changed.write_text("\n".join([header, *map(",".join, events)]) + "\n", encoding="utf-8")
        assert main(["prepare", "--data", str(changed), "--out", str(out), "--seed", "5"]) == 0
        first, prev = float(manifest["mean_since_first"]), float(manifest["mean_since_prev"])
        baseline = out / "models" / "baseline.ckpt"
        vocab = load_checkpoint(baseline).spec.vocab
        named = named.format(d=vocab.index("d"), first=first, prev=prev,
                             twice_first=2 * first, twice_prev=2 * prev)
        before = {d: _tree_bytes(out / d) for d in ("verification", "report")}
        capsys.readouterr()
        # `verify` loads the copy's model, and so does `report`: its summary names the
        # model relative to --out
        for argv in (["verify", "--method", "posthoc"], ["report"]):
            assert main([*argv, "--out", str(out)]) == 1
            _assert_one_error_line(
                capsys,
                f"error: checkpoint {baseline}: encoding spec differs from the prepared "
                f"data's in {named}",
            )
        assert {d: _tree_bytes(out / d) for d in before} == before

    def test_column_flags_remap(self, tmp_path):
        csv_path = tmp_path / "named.csv"
        csv_path.write_text(
            "CaseID,ActivityID,CompleteTimestamp\n"
            "c1,a,100\nc1,b,200\nc2,a,150\nc2,b,300\nc3,a,500\nc3,b,600\n",
            encoding="utf-8",
        )
        code = main(
            ["prepare", "--data", str(csv_path), "--out", str(tmp_path / "o"),
             "--case-col", "CaseID", "--activity-col", "ActivityID",
             "--timestamp-col", "CompleteTimestamp"]
        )
        assert code == 0


def _running(pgid: int) -> bool:
    """Whether a process of group `pgid` still runs; one that died but is not reaped does not."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    if not os.path.isdir("/proc"):
        return True
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:  # the fields after the command name: state, parent, group, ...
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
        except OSError:  # the process ended while listed
            continue
        if state != "Z" and int(group) == pgid:
            return True
    return False


def _wait_until_gone(pgid: int, timeout_s: float = 30.0):
    deadline = time.monotonic() + timeout_s
    while _running(pgid):
        assert time.monotonic() < deadline, f"process group {pgid} is still running"
        time.sleep(0.01)


class TestKillAndRerun:
    # kill points, as fractions of an uninterrupted run's wall time
    FRACTIONS = (0.4, 0.8)
    COMMANDS = (
        ["train", "--mode", "baseline", "--epochs", "1"],
        ["gridsearch", "--grid", "small", "--epochs", "1", "--eval-limit", "4",
         "--samples", "10"],
    )

    def test_rerun_after_a_kill_gives_the_uninterrupted_files(self, tmp_path):
        """`train` and `gridsearch` killed with all their workers part-way, then run again.

        Each command is a CLI process in a session of its own, so one SIGKILL
        to its process group ends it and every worker it spawned.  The rerun
        loads every cell the killed run stored, and scores only the grid cells
        that have no score record, leaving each record the killed run wrote
        as it is.  A kill inside `write_atomic`
        may leave a `.<name>.<pid>.tmp` file beside its target, which nothing
        reads; every other file equals an uninterrupted run's.
        """
        csv_path = tmp_path / "log.csv"
        write_markov_csv(csv_path, n_cases=60, seed=23)
        prepared = tmp_path / "prepared"
        assert main(["prepare", "--data", str(csv_path), "--out", str(prepared),
                     "--seed", "5"]) == 0
        # a killed pool leaves its job directory in TMPDIR, here inside tmp_path
        env = {**os.environ, "PYTHONPATH": str(Path(sennap.__file__).resolve().parents[1]),
               "TMPDIR": str(tmp_path)}

        def start(argv, out):
            return subprocess.Popen(
                [sys.executable, "-m", "sennap.cli", *argv, "--out", str(out), "--seed", "5"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True,
            )

        def finish(argv, out):
            proc = start(argv, out)
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            return stdout

        def cells(out):
            return set((out / "models" / "cells").glob("*.ckpt"))

        def records(out):
            return {r: r.stat().st_ino for r in (out / "models" / "cells").glob("*.json")}

        reference = tmp_path / "reference"
        shutil.copytree(prepared, reference)
        wall_s = []
        for argv in self.COMMANDS:
            began = time.perf_counter()
            finish(argv, reference)
            wall_s.append(time.perf_counter() - began)
        expected = _tree_bytes(reference)

        for fraction in self.FRACTIONS:
            out = tmp_path / f"killed-{fraction}"
            shutil.copytree(prepared, out)
            for argv, seconds in zip(self.COMMANDS, wall_s):
                before = cells(out)
                proc = start(argv, out)
                time.sleep(fraction * seconds)
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate(timeout=30)
                _wait_until_gone(proc.pid)
                kept, scored = cells(out) - before, records(out)
                assert finish(argv, out).count("(stored)") == len(kept), argv
                after = records(out)
                assert {r: after[r] for r in scored} == scored, argv
                assert len(after) == (10 if argv[0] == "gridsearch" else 0), argv
            got = _tree_bytes(out)
            for name in [name for name in got if name.name.endswith(".tmp")]:
                target = re.fullmatch(r"\.(.+)\.\d+\.tmp", name.name)
                assert target and name.with_name(target[1]) in expected, name
                del got[name]
            assert got == expected, fraction


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        write_markov_csv(csv_path, n_cases=12, seed=3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data={csv_path}\nout={tmp_path / 'from_file'}\nseed=9\n",
            encoding="utf-8",
        )
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_file" / "prepare" / "manifest.txt").exists()

        assert main(["prepare", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "prepare" / "manifest.txt").exists()
        manifest = read_manifest(tmp_path / "flag" / "prepare" / "manifest.txt")
        assert manifest["seed"] == "9"

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("data no equals sign\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_file(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-utf8":
            cfg.write_bytes(b"seed=3\n\xff\n")
        assert main(["prepare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(cfg) in err[0], err

    def test_unknown_key_rejected_before_training(self, workdir, tmp_path, capsys):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate=0.5\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(out), "--mode", "baseline",
                     "--epochs", "1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "'learning_rate'" in err[0] and str(cfg) in err[0]
        assert _tree_bytes(out) == before

    def test_one_file_serves_prepare_and_train(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        write_markov_csv(csv_path, n_cases=12, seed=3)
        out = tmp_path / "runs"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data={csv_path}\nout={out}\nseed=4\nmode=baseline\nepochs=1\nlr=0.01\n",
            encoding="utf-8",
        )
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = read_manifest(out / "models" / "baseline.manifest.txt")
        assert manifest["config.learning_rate"] == "0.01"
        assert manifest["config.max_epochs"] == "1"
        assert manifest["config.seed"] == "4"

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["train"], "lr=abc"),
            (["train"], "mode=both"),
            (["gridsearch"], "grid=medium"),
            (["explain"], "method=lime"),
            (["verify"], "method=lime"),
        ],
        ids=["train-lr", "train-mode", "gridsearch-grid", "explain-method", "verify-method"],
    )
    def test_invalid_file_values(self, workdir, tmp_path, capsys, argv, entry):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n", encoding="utf-8")
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        key, value = entry.split("=")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"config key {key!r} has invalid value {value!r}" in err[0], err
        assert _tree_bytes(out) == before

    def test_gridsearch_reads_no_lr_or_xi(self, workdir, tmp_path, capsys):
        # the grid sets both per cell, so file values for them are not read
        out = _copy_runs(workdir, tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=abc\nxi=abc\n", encoding="utf-8")
        assert main(["gridsearch", "--config", str(cfg), "--out", str(out), "--seed", "5",
                     "--grid", "small", "--epochs", "1", "--eval-limit", "1",
                     "--samples", "5"]) == 0


# the config field each option fills; options missing here exist only in the CLI
_FIELDS = {
    "seed": [(TrainConfig, "seed"), (AnchorConfig, "seed")],
    "case_col": [(ColumnMap, "case")],
    "activity_col": [(ColumnMap, "activity")],
    "timestamp_col": [(ColumnMap, "timestamp")],
    "mode": [(TrainConfig, "mode")],
    "lr": [(TrainConfig, "learning_rate")],
    "xi": [(TrainConfig, "xi")],
    "lam": [(TrainConfig, "lam")],
    "tau": [(TrainConfig, "tau")],
    "epochs": [(TrainConfig, "max_epochs")],
    "batch_size": [(TrainConfig, "batch_size")],
    "patience": [(TrainConfig, "patience")],
    "delta": [(AnchorConfig, "precision_threshold")],
    "samples": [(AnchorConfig, "n_samples")],
    "timeout": [(AnchorConfig, "timeout_s")],
}
_CLI_DEFAULTS = {
    "out": "runs", "data": None, "grid": "full", "method": "selfexplain", "checkpoint": None,
    "limit": 200, "eval_limit": 200, "threads": 1,
}
_PAIRS = [(command, name) for command, (_, _, names) in COMMANDS.items() for name in names]


class TestOptionTable:
    @pytest.mark.parametrize("command, name", _PAIRS, ids=[f"{c}-{n}" for c, n in _PAIRS])
    def test_flag_file_and_default_resolve_alike(self, tmp_path, command, name):
        kind, default, _ = OPTIONS[name]
        if isinstance(kind, tuple):
            text = next(value for value in kind if value != default)
        else:
            text = {int: "3", float: "0.25", str: "other"}[kind]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name}={text}\n", encoding="utf-8")
        parser = build_parser()
        flag = Settings(parser.parse_args([command, "--" + name.replace("_", "-"), text]))
        file = Settings(parser.parse_args([command, "--config", str(cfg)]))
        neither = Settings(parser.parse_args([command]))
        assert flag.get(name) == file.get(name) != default
        assert type(flag.get(name)) is type(file.get(name))
        assert neither.get(name) == default
        if name in _FIELDS:
            assert all(default == getattr(cls(), field) for cls, field in _FIELDS[name])
        else:
            assert default == _CLI_DEFAULTS[name]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_every_default(self, command):
        env = {**os.environ, "PYTHONPATH": str(Path(sennap.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "sennap.cli", command, "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        text = " ".join(done.stdout.split())
        for name in COMMANDS[command][2]:
            flag = "--" + name.replace("_", "-")
            assert flag in text
            default = OPTIONS[name].default
            if default is not None:
                assert f"(default: {default})" in text, name
