"""End-to-end command-line pipeline on a synthetic log."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from sennap.cli import Prepared, main
from sennap.evaluation import accuracy
from sennap.training import load_checkpoint, read_manifest, save_checkpoint, write_manifest

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


def _assert_one_error_line(capsys):
    """Check stderr holds a single error line; returns stdout."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return captured.out


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
        first = {
            p.name: p.read_bytes() for p in (again / "prepare").iterdir()
        }
        assert main(args) == 0
        for p in (again / "prepare").iterdir():
            assert p.read_bytes() == first[p.name]
        for name in ("encoding.txt", "split.txt", "manifest.txt"):
            assert (out / "prepare" / name).read_bytes() == first[name]

    def test_checkpoints_exist_and_load(self, workdir):
        _, out = workdir
        for mode in ("baseline", "selfexplain"):
            ckpt = load_checkpoint(out / "models" / f"{mode}.ckpt")
            assert ckpt.config.mode == mode

    def test_train_same_seed_is_idempotent(self, workdir, tmp_path):
        csv_path, _ = workdir
        out = tmp_path / "runs"
        prep = ["prepare", "--data", str(csv_path), "--out", str(out), "--seed", "5"]
        train = ["train", "--out", str(out), "--seed", "5", "--mode", "baseline",
                 "--epochs", "2", "--patience", "5"]
        assert main(prep) == 0
        assert main(train) == 0
        first = (out / "models" / "baseline.ckpt").read_bytes()
        assert main(train) == 0
        assert (out / "models" / "baseline.ckpt").read_bytes() == first

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
            ["--method", "posthoc", "--samples", "0"],
            ["--method", "posthoc", "--timeout", "0"],
            ["--method", "selfexplain", "--limit", "0"],
            ["--method", "posthoc", "--limit", "0"],
        ],
        ids=["delta", "samples", "timeout", "limit-selfexplain", "limit-posthoc"],
    )
    def test_invalid_explain_flags(self, workdir, tmp_path, capsys, flags):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "explanations")
        code = main(["explain", "--out", str(out), *flags])
        assert code == 1
        _assert_one_error_line(capsys)
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
        "flags", [["--samples", "0"], ["--delta", "0"]], ids=["samples", "delta"]
    )
    def test_invalid_verify_flags(self, workdir, tmp_path, capsys, flags):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "verification")
        code = main(["verify", "--out", str(out), "--method", "selfexplain", *flags])
        assert code == 1
        _assert_one_error_line(capsys)
        assert _tree_bytes(out / "verification") == before

    @pytest.mark.parametrize(
        "flags",
        [["--samples", "0"], ["--delta", "0"], ["--eval-limit", "0"]],
        ids=["samples", "delta", "eval-limit"],
    )
    def test_invalid_gridsearch_flags_rejected_before_training(
        self, workdir, tmp_path, capsys, flags
    ):
        out = _copy_runs(workdir, tmp_path)
        before = _tree_bytes(out / "models")
        code = main(["gridsearch", "--out", str(out), "--grid", "small",
                     "--epochs", "1", *flags])
        assert code == 1
        assert "grid cell" not in _assert_one_error_line(capsys)
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
            ("encoding-file", "encoding.txt"),
            ("encoding-number", "encoding.txt"),
            ("encoding-nan", "encoding.txt"),
            ("encoding-labels", "encoding.txt"),
        ],
    )
    def test_damaged_prepare_directory(self, workdir, tmp_path, capsys, damage, named):
        out = _copy_runs(workdir, tmp_path)
        prep = out / "prepare"
        if damage == "manifest-key":
            manifest = read_manifest(prep / "manifest.txt")
            del manifest["columns.case"]
            write_manifest(prep / "manifest.txt", manifest)
        elif damage == "encoding-file":
            (prep / "encoding.txt").unlink()
        else:
            key, value = {
                "encoding-number": ("mean_since_prev", "abc"),
                "encoding-nan": ("mean_since_first", "nan"),
                "encoding-labels": ("vocab", '["a", "a", "b", "c", "d"]'),
            }[damage]
            encoding = read_manifest(prep / "encoding.txt")
            encoding[key] = value
            write_manifest(prep / "encoding.txt", encoding)
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
        ],
        ids=["summary-file", "summary-number", "explanation-json", "explanation-key",
             "explanation-utf8"],
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
        else:
            records.write_bytes("\n".join(lines[:2]).encode() + b"\n\xff\n")
        code = main([*argv, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err

    def test_small_grid_again_loads_every_cell(self, workdir, tmp_path, capsys):
        out = _copy_runs(workdir, tmp_path)
        argv = ["gridsearch", "--out", str(out), "--seed", "5", "--grid", "small",
                "--epochs", "1", "--eval-limit", "2", "--samples", "10"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("grid cell")]
            runs.append((lines, _tree_bytes(out / "models" / "grid_small")))
        assert len(runs[0][0]) == 10 and not any(l.endswith("(stored)") for l in runs[0][0])
        assert len(runs[1][0]) == 10 and all(l.endswith(" (stored)") for l in runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert len(list((out / "models" / "cells").glob("*.ckpt"))) == 10
        assert not list((out / "models").rglob("cell_*.ckpt"))

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
