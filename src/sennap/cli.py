"""Command-line pipeline: prepare, train, gridsearch, explain, verify, report.

Configuration comes from UTF-8 key=value files plus flags (flags win); every
command echoes its effective values into a manifest so runs can be audited
and reproduced.  Commands are idempotent for a fixed config and seed, modulo
recorded wall times in explanation files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .encoding import Dataset, EncodedInstance, EncodingSpec, encode_dataset, fit_normalizers
from .errors import ConfigError, EncodingError, SennapError, SpecMismatchError
from .eventlog import ColumnMap, SplitSpec, generate_prefixes, parse_csv, split_chronological
from .evaluation import (
    Explanation,
    accuracy,
    explain_posthoc,
    explain_selfexplain,
    format_report,
    render_explanation,
    summarize,
    verify_explanations,
)
from .posthoc import AnchorConfig
from .selfexplain import FeatureSampler
from .training import (
    Checkpoint,
    TrainConfig,
    fit,
    grid_search,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    write_manifest,
)


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"config file {path!r} does not exist")
    out: dict[str, str] = {}
    for line in file.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line without '=': {line!r}")
        out[key.strip()] = value.strip()
    return out


class Settings:
    """Effective option values: CLI flag > config file > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = _load_config_file(self.args.get("config"))

    def get(self, key: str, default, cast=str):
        flag = self.args.get(key)
        if flag is not None:
            return flag
        if key in self.file:
            try:
                return cast(self.file[key])
            except ValueError:
                raise ConfigError(
                    f"config key {key!r} has invalid value {self.file[key]!r}"
                ) from None
        return default


def _columns(settings: Settings) -> ColumnMap:
    return ColumnMap(
        case=settings.get("case_col", "case"),
        activity=settings.get("activity_col", "activity"),
        timestamp=settings.get("timestamp_col", "timestamp"),
    )


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------


def _write_split(path: Path, split: SplitSpec):
    with path.open("w", encoding="utf-8") as handle:
        for part in ("train", "validation", "test"):
            for case in getattr(split, part):
                handle.write(f"{part}\t{case.case_id}\n")


def _read_split(path: Path, log) -> SplitSpec:
    if not path.exists():
        raise ConfigError(f"missing split file {path}; run `prepare` first")
    by_id = {case.case_id: case for case in log.cases}
    parts: dict[str, list] = {"train": [], "validation": [], "test": []}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        part, _, case_id = line.partition("\t")
        if part not in parts:
            raise ConfigError(f"{path}: line {line_no}: unknown split part {part!r}")
        if case_id not in by_id:
            raise ConfigError(f"{path}: line {line_no}: unknown case id {case_id!r}")
        parts[part].append(by_id[case_id])
    return SplitSpec(
        train=tuple(parts["train"]),
        validation=tuple(parts["validation"]),
        test=tuple(parts["test"]),
    )


class Prepared:
    """Prepared artifacts reloaded for downstream commands."""

    def __init__(self, out_dir: Path):
        prep = out_dir / "prepare"
        manifest_path = prep / "manifest.txt"
        if not manifest_path.exists():
            raise ConfigError(f"no prepared artifacts under {out_dir}; run `prepare`")
        self.manifest = read_manifest(manifest_path)

        def entry(key: str) -> str:
            if key not in self.manifest:
                raise ConfigError(f"{manifest_path}: missing key {key!r}; run `prepare` again")
            return self.manifest[key]

        columns = ColumnMap(
            case=entry("columns.case"),
            activity=entry("columns.activity"),
            timestamp=entry("columns.timestamp"),
        )
        self.log = parse_csv(entry("data"), columns)
        self.split = _read_split(prep / "split.txt", self.log)
        encoding_path = prep / "encoding.txt"
        if not encoding_path.exists():
            raise ConfigError(f"missing encoding file {encoding_path}; run `prepare` again")
        try:
            self.spec = EncodingSpec.from_metadata(read_manifest(encoding_path))
        except KeyError as exc:
            raise ConfigError(f"{encoding_path}: missing key {exc}") from None
        except (ValueError, TypeError, EncodingError) as exc:
            raise ConfigError(f"{encoding_path}: malformed value ({exc})") from None

    def dataset(self, part: str, purpose: str) -> Dataset:
        cases = getattr(self.split, part)
        records = generate_prefixes(cases, self.spec_vocab_map(), self.spec.k, purpose)
        return encode_dataset(records, self.spec)

    def spec_vocab_map(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.spec.vocab)}

    def sampler(self) -> FeatureSampler:
        train = self.dataset("train", "train")
        return FeatureSampler.fit(self.spec, train.x)


def _check_spec(ckpt: Checkpoint, spec: EncodingSpec):
    if ckpt.spec != spec:
        raise SpecMismatchError(
            "checkpoint encoding spec does not match the prepared data "
            f"(checkpoint |A|={ckpt.spec.vocab_size}, k={ckpt.spec.k}; "
            f"data |A|={spec.vocab_size}, k={spec.k})"
        )


def _default_checkpoint(out_dir: Path, method: str) -> Path:
    if method == "posthoc":
        return out_dir / "models" / "baseline.ckpt"
    selected = out_dir / "models" / "grid_full" / "selected.ckpt"
    if selected.exists():
        return selected
    return out_dir / "models" / "selfexplain.ckpt"


def _checkpoint_path(path: str | None, out_dir: Path, method: str) -> Path:
    path = Path(path) if path else _default_checkpoint(out_dir, method)
    if not path.exists():
        raise ConfigError(f"checkpoint {path} does not exist; train a model first")
    return path


def _threads(settings: Settings) -> int:
    threads = settings.get("threads", 1, int)
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    return threads


def _write_jsonl(path: Path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _read_explanations(path: Path) -> list[Explanation]:
    if not path.exists():
        raise ConfigError(f"missing {path}")
    explanations = []
    # json.loads decodes each line's bytes, so a line that is not UTF-8 is named like any other
    for line_no, line in enumerate(path.read_bytes().splitlines(), 1):
        if not line:
            continue
        try:
            explanations.append(Explanation.from_record(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {line_no}: not JSON ({exc.msg})") from None
        except KeyError as exc:
            raise ConfigError(f"{path}: line {line_no}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: line {line_no}: malformed record ({exc})") from None
    return explanations


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    settings = Settings(args)
    data = settings.get("data", None)
    if not data:
        raise ConfigError("prepare needs --data (or data= in the config file)")
    out_dir = Path(settings.get("out", "runs"))
    seed = settings.get("seed", 7, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    columns = _columns(settings)

    log = parse_csv(data, columns)
    split = split_chronological(log)
    train_prefixes = generate_prefixes(split.train, log.vocabulary, log.k, "train")
    mean_first, mean_prev = fit_normalizers(train_prefixes)
    spec = EncodingSpec(
        vocab=tuple(log.vocabulary),
        k=log.k,
        mean_since_first=mean_first,
        mean_since_prev=mean_prev,
    )

    prep = out_dir / "prepare"
    prep.mkdir(parents=True, exist_ok=True)
    write_manifest(prep / "encoding.txt", spec.to_metadata())
    _write_split(prep / "split.txt", split)
    write_manifest(
        prep / "manifest.txt",
        {
            "data": data,
            "columns.case": columns.case,
            "columns.activity": columns.activity,
            "columns.timestamp": columns.timestamp,
            "cases": log.case_count,
            "events": log.event_count,
            "activities": len(log.vocabulary),
            "k": log.k,
            "split.train": len(split.train),
            "split.validation": len(split.validation),
            "split.test": len(split.test),
            "mean_since_first": repr(mean_first),
            "mean_since_prev": repr(mean_prev),
            "seed": seed,
        },
    )
    print(
        f"prepared {log.case_count} cases / {log.event_count} events, "
        f"|A|={len(log.vocabulary)}, k={log.k} -> {prep}"
    )
    return 0


def _train_config(settings: Settings, mode: str) -> TrainConfig:
    return TrainConfig(
        mode=mode,
        learning_rate=settings.get("lr", 0.002, float),
        xi=settings.get("xi", 0.0, float),
        lam=settings.get("lam", 1.0, float),
        tau=settings.get("tau", 0.5, float),
        batch_size=settings.get("batch_size", 64, int),
        max_epochs=settings.get("epochs", 150, int),
        patience=settings.get("patience", 20, int),
        seed=settings.get("seed", 7, int),
    )


def cmd_train(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out", "runs"))
    mode = settings.get("mode", "baseline")
    config = _train_config(settings, mode)
    prepared = Prepared(out_dir)

    train_set = prepared.dataset("train", "train")
    val_set = prepared.dataset("validation", "train")
    ckpt = fit(train_set, val_set, prepared.spec, config, log=print)

    models = out_dir / "models"
    models.mkdir(parents=True, exist_ok=True)
    path = models / f"{mode}.ckpt"
    save_checkpoint(ckpt, path)
    history = json.dumps(
        [
            {"epoch": h.epoch, "train": h.train["total"], "val": h.val["total"]}
            for h in ckpt.history
        ]
    )
    write_manifest(
        models / f"{mode}.manifest.txt",
        {
            **{f"config.{k}": v for k, v in vars(config).items()},
            "best_epoch": ckpt.best_epoch,
            "best_val_loss": repr(ckpt.best_val_loss),
            "epochs_run": len(ckpt.history),
            "parameters": ckpt.params.parameter_count(),
            "mean_since_first": repr(prepared.spec.mean_since_first),
            "mean_since_prev": repr(prepared.spec.mean_since_prev),
            "history": history,
        },
    )
    print(
        f"saved {path} (best epoch {ckpt.best_epoch}, "
        f"val loss {ckpt.best_val_loss:.4f})"
    )
    return 0


def cmd_gridsearch(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out", "runs"))
    grid = settings.get("grid", "full")
    if grid not in ("full", "small"):
        raise ConfigError(f"--grid must be full or small, got {grid!r}")
    config = _train_config(settings, "selfexplain")
    delta = settings.get("delta", 0.95, float)
    samples = settings.get("samples", 100, int)
    limit = settings.get("eval_limit", 200, int)
    prepared = Prepared(out_dir)

    train_set = prepared.dataset("train", "train")
    val_set = prepared.dataset("validation", "train")
    selection = prepared.dataset("validation", "eval")

    grid_dir = out_dir / "models" / f"grid_{grid}"
    grid_dir.mkdir(parents=True, exist_ok=True)
    result, best = grid_search(
        train_set,
        val_set,
        prepared.spec,
        config,
        grid=grid,
        selection_set=selection,
        selection_limit=limit,
        delta=delta,
        n_samples=samples,
        checkpoint_dir=out_dir / "models" / "cells",
        log=print,
    )
    save_checkpoint(best, grid_dir / "selected.ckpt")
    _write_jsonl(grid_dir / "result.jsonl", [c.to_record() for c in result.cells])
    write_manifest(
        grid_dir / "manifest.txt",
        {
            "grid": grid,
            "cells": len(result.cells),
            "selected.learning_rate": repr(result.selected.learning_rate),
            "selected.xi": repr(result.selected.xi),
            "selected.val_accuracy": repr(result.selected.val_accuracy),
            "selected.val_faithfulness": repr(result.selected.val_faithfulness),
            "selected.mean_size": repr(result.selected.mean_size),
            "delta": repr(delta),
            "samples": samples,
            "eval_limit": limit,
            "seed": config.seed,
        },
    )
    print(
        f"grid {grid}: {len(result.cells)} cells, selected "
        f"lr={result.selected.learning_rate:g} xi={result.selected.xi:g} "
        f"(val acc {result.selected.val_accuracy:.3f})"
    )
    return 0


def cmd_explain(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out", "runs"))
    method = settings.get("method", "selfexplain")
    if method not in ("selfexplain", "posthoc"):
        raise ConfigError(f"--method must be selfexplain or posthoc, got {method!r}")
    limit = settings.get("limit", 200, int)
    if limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {limit}")
    seed = settings.get("seed", 7, int)
    threads = _threads(settings)
    prepared = Prepared(out_dir)
    ckpt = load_checkpoint(_checkpoint_path(settings.get("checkpoint", None), out_dir, method))
    _check_spec(ckpt, prepared.spec)

    test_set = prepared.dataset("test", "eval")
    if len(test_set) == 0:
        raise ConfigError("test split yields no evaluation prefixes")
    if method == "selfexplain":
        explanations = explain_selfexplain(
            ckpt.params, test_set, prepared.spec, tau=ckpt.config.tau, limit=limit
        )
    else:
        anchor = AnchorConfig(
            precision_threshold=settings.get("delta", 0.95, float),
            n_samples=settings.get("samples", 100, int),
            timeout_s=settings.get("timeout", 600.0, float),
            seed=seed,
        )
        explanations = explain_posthoc(
            ckpt.params, test_set, anchor, prepared.sampler(),
            limit=limit, threads=threads,
        )

    exp_dir = out_dir / "explanations"
    exp_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(exp_dir / f"{method}.jsonl", [e.to_record() for e in explanations])
    found = sum(1 for e in explanations if e.status == "found")
    print(
        f"{method}: {len(explanations)} instances, {found} explanations found, "
        f"mean time "
        f"{float(np.mean([e.wall_time_s for e in explanations])):.5f} s"
    )
    return 0


def cmd_verify(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out", "runs"))
    method = settings.get("method", "selfexplain")
    delta = settings.get("delta", 0.95, float)
    samples = settings.get("samples", 100, int)
    seed = settings.get("seed", 7, int)
    threads = _threads(settings)
    prepared = Prepared(out_dir)
    ckpt_path = _checkpoint_path(settings.get("checkpoint", None), out_dir, method)
    ckpt = load_checkpoint(ckpt_path)
    _check_spec(ckpt, prepared.spec)

    explanations = _read_explanations(out_dir / "explanations" / f"{method}.jsonl")
    test_set = prepared.dataset("test", "eval")
    verified = verify_explanations(
        ckpt.params, test_set, explanations, prepared.sampler(),
        delta=delta, n_samples=samples, seed=seed, threads=threads,
    )
    ver_dir = out_dir / "verification"
    ver_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(ver_dir / f"{method}.jsonl", [e.to_record() for e in verified])
    report = summarize(verified, delta=delta, n_samples=samples, seed=seed)
    write_manifest(
        ver_dir / f"{method}.summary.txt", {**report.as_rows(), "checkpoint": ckpt_path}
    )
    print(
        f"{method}: existing {100 * report.existing_rate:.2f}%, "
        f"sufficient of existing {100 * report.sufficient_among_existing:.2f}%, "
        f"overall {100 * report.sufficient_overall:.2f}%"
    )
    return 0


def cmd_report(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out", "runs"))
    prepared = Prepared(out_dir)
    test_set = prepared.dataset("test", "eval")
    row_of = {iid: i for i, iid in enumerate(test_set.ids)}

    reports = []
    rendered = []
    for method in ("posthoc", "selfexplain"):
        path = out_dir / "verification" / f"{method}.jsonl"
        if not path.exists():
            continue
        explanations = _read_explanations(path)
        summary_path = out_dir / "verification" / f"{method}.summary.txt"
        summary_kv = read_manifest(summary_path)
        try:
            delta = float(summary_kv.get("delta", 0.95))
            n_samples = int(summary_kv.get("n_samples", 100))
            seed = int(summary_kv.get("seed", 7))
        except ValueError as exc:
            raise ConfigError(f"{summary_path}: malformed value ({exc})") from None
        # the model `verify` used; summaries written before the path was recorded
        # fall back to the method's default checkpoint
        ckpt = load_checkpoint(_checkpoint_path(summary_kv.get("checkpoint"), out_dir, method))
        acc = accuracy(ckpt.params, test_set)
        reports.append(
            summarize(explanations, accuracy=acc, delta=delta, n_samples=n_samples, seed=seed)
        )
        shown = next(
            (e for e in explanations if e.status == "found" and e.sufficient), None
        )
        if shown is not None:
            if shown.instance_id not in row_of:
                raise ConfigError(f"instance {shown.instance_id!r} not in the test split")
            i = row_of[shown.instance_id]
            instance = EncodedInstance(
                test_set.x[i], int(test_set.y_activity[i]), float(test_set.y_time[i]),
                test_set.prefix_lengths[i], shown.instance_id,
            )
            rendered.append(render_explanation(shown, instance, prepared.spec))
    if not reports:
        raise ConfigError(f"no verification results under {out_dir}; run `verify` first")

    text = format_report(reports)
    if rendered:
        text += "\n\n== example explanations ==\n\n" + "\n\n".join(rendered)
    report_dir = out_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "report.txt").write_text(text + "\n", encoding="utf-8")
    _write_jsonl(report_dir / "report.jsonl", [r.as_rows() for r in reports])
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--out", help="output directory (default: runs)")
    sub.add_argument("--seed", type=int, help="global seed (default: 7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sennap",
        description="Train and evaluate self-explaining next-activity predictors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("prepare", help="parse, split, and fit the encoding")
    _add_common(p)
    p.add_argument("--data", help="event-log CSV path")
    p.add_argument("--case-col", dest="case_col", help="case id column name")
    p.add_argument("--activity-col", dest="activity_col", help="activity column name")
    p.add_argument("--timestamp-col", dest="timestamp_col", help="timestamp column name")
    p.set_defaults(func=cmd_prepare)

    p = commands.add_parser("train", help="train one model")
    _add_common(p)
    p.add_argument("--mode", choices=("baseline", "selfexplain"))
    p.add_argument("--lr", type=float, help="learning rate (default: 0.002)")
    p.add_argument("--xi", type=float, help="cardinality coefficient (default: 0)")
    p.add_argument("--lam", type=float, help="faithfulness coefficient (default: 1)")
    p.add_argument("--tau", type=float, help="selection threshold (default: 0.5)")
    p.add_argument("--epochs", type=int, help="max epochs (default: 150)")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patience", type=int, help="early-stopping patience (default: 20)")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("gridsearch", help="hyperparameter grid over lr and xi")
    _add_common(p)
    p.add_argument("--grid", choices=("full", "small"))
    p.add_argument("--lam", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--delta", type=float, help="sufficiency threshold (default: 0.95)")
    p.add_argument("--samples", type=int, help="verification samples (default: 100)")
    p.add_argument("--eval-limit", dest="eval_limit", type=int,
                   help="instances per cell for faithfulness (default: 200)")
    p.set_defaults(func=cmd_gridsearch)

    p = commands.add_parser("explain", help="generate explanations on the test split")
    _add_common(p)
    p.add_argument("--method", choices=("selfexplain", "posthoc"))
    p.add_argument("--checkpoint", help="checkpoint path (default per method)")
    p.add_argument("--limit", type=int, help="instance budget (default: 200)")
    p.add_argument("--timeout", type=float, help="post-hoc seconds per instance (default: 600)")
    p.add_argument("--delta", type=float, help="post-hoc precision threshold (default: 0.95)")
    p.add_argument("--samples", type=int, help="post-hoc samples per estimate (default: 100)")
    p.add_argument("--threads", type=int, help="instance-level parallelism (default: 1)")
    p.set_defaults(func=cmd_explain)

    p = commands.add_parser("verify", help="verify explanation sufficiency")
    _add_common(p)
    p.add_argument("--method", choices=("selfexplain", "posthoc"))
    p.add_argument("--checkpoint", help="checkpoint path (default per method)")
    p.add_argument("--delta", type=float, help="sufficiency threshold (default: 0.95)")
    p.add_argument("--samples", type=int, help="samples per instance (default: 100)")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("report", help="aggregate tables and example renderings")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SennapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
