"""Command-line pipeline: prepare, train, gridsearch, explain, verify, report.

Configuration comes from UTF-8 key=value files plus flags (flags win);
`OPTIONS` declares every option once, with its type, default and help.
`prepare`, `train` and `gridsearch` write a manifest next to their outputs and
`verify` a summary; `explain` and `report` write only their records.  `train`
fits in this process with OpenBLAS pinned to one thread, or in a one-BLAS-thread
worker process where no OpenBLAS is found; `gridsearch` fits and scores its
cells in one-BLAS-thread worker processes.  Both keep each fit in the cell store
`models/cells/`, and `gridsearch` keeps each cell's scores beside it, so a
rerun loads what it fitted before and scores only what it has not scored.
Commands are idempotent for a fixed config and seed, modulo recorded wall
times in explanation files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoding import Dataset, EncodingSpec, encode_dataset, fit_normalizers
from .errors import ConfigError, SennapError, SpecMismatchError
from .eventlog import (
    ColumnMap, EventLog, SplitSpec, generate_prefixes, parse_csv, split_chronological,
)
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
from .runfiles import (
    read_bytes, read_manifest, read_text, thread_workers, write_atomic, write_manifest,
)
from .selfexplain import FeatureSampler
from .training import (
    Checkpoint, TrainConfig, fit_cell, grid_search, load_checkpoint, save_checkpoint,
)


class Option(NamedTuple):
    kind: type | tuple[str, ...]  # the cast for a value, or its allowed values
    default: object               # None: the command says what happens without it
    help: str


_TRAIN, _ANCHOR, _COLUMNS = TrainConfig(), AnchorConfig(), ColumnMap()

# every option except --config; the flag is --name with '-' for '_', the file key is name
OPTIONS = {
    "out": Option(str, "runs", "output directory"),
    "seed": Option(int, _TRAIN.seed, "global seed"),
    "data": Option(str, None, "event-log CSV path (required)"),
    "case_col": Option(str, _COLUMNS.case, "case id column name"),
    "activity_col": Option(str, _COLUMNS.activity, "activity column name"),
    "timestamp_col": Option(str, _COLUMNS.timestamp, "timestamp column name"),
    "mode": Option(("baseline", "selfexplain"), _TRAIN.mode, "model to train"),
    "lr": Option(float, _TRAIN.learning_rate, "learning rate"),
    "xi": Option(float, _TRAIN.xi, "cardinality coefficient"),
    "lam": Option(float, _TRAIN.lam, "faithfulness coefficient"),
    "tau": Option(float, _TRAIN.tau, "selection threshold"),
    "epochs": Option(int, _TRAIN.max_epochs, "max epochs"),
    "batch_size": Option(int, _TRAIN.batch_size, "minibatch size"),
    "patience": Option(int, _TRAIN.patience, "early-stopping patience"),
    "grid": Option(("full", "small"), "full", "hyperparameter grid over lr and xi"),
    "delta": Option(float, _ANCHOR.precision_threshold, "sufficiency (precision) threshold"),
    "samples": Option(int, _ANCHOR.n_samples, "Monte-Carlo samples per estimate"),
    "eval_limit": Option(int, 200, "instances per grid cell for faithfulness"),
    "method": Option(("selfexplain", "posthoc"), "selfexplain", "explanation method"),
    "checkpoint": Option(str, None, "checkpoint path; without it, the method's model under --out"),
    "limit": Option(int, 200, "instance budget"),
    "timeout": Option(float, _ANCHOR.timeout_s, "post-hoc seconds per instance"),
    "threads": Option(int, 1, "instances in flight at once, at most one per CPU"),
}


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}: config line without '=': {line!r}")
        key = key.strip()
        # checked against every option, so one file can serve every command
        if key not in OPTIONS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


class Settings:
    """Effective option values: CLI flag > config file > `OPTIONS` default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)  # holds a key for each option of the running command
        self.file = _load_config_file(self.args.get("config"))

    def get(self, name: str):
        flag = self.args.get(name)
        if flag is not None:
            return flag
        kind, default, _ = OPTIONS[name]
        if name not in self.file:
            return default
        value = self.file[name]
        if isinstance(kind, tuple):
            if value in kind:
                return value
        else:
            try:
                return kind(value)
            except ValueError:
                pass
        raise ConfigError(f"config key {name!r} has invalid value {value!r}")


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------


def _split_and_spec(log: EventLog) -> tuple[SplitSpec, EncodingSpec]:
    """The log's chronological split and the encoding fitted on its training prefixes."""
    split = split_chronological(log)
    train_prefixes = generate_prefixes(split.train, log.vocabulary, log.k, "train")
    mean_first, mean_prev = fit_normalizers(train_prefixes)
    spec = EncodingSpec(
        vocab=tuple(log.vocabulary),
        k=log.k,
        mean_since_first=mean_first,
        mean_since_prev=mean_prev,
    )
    return split, spec


class Prepared:
    """The prepared log, checked against `prepare`'s digest, with its split and encoding."""

    def __init__(self, out_dir: Path):
        manifest_path = out_dir / "prepare" / "manifest.txt"
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
        data = entry("data")
        # one read: the bytes checked are the bytes parsed
        raw = read_bytes(data)
        if hashlib.sha256(raw).hexdigest() != entry("data.sha256"):
            raise ConfigError(f"{data}: the event log changed after `prepare`; run `prepare` again")
        self.log = parse_csv(data, columns, data=raw)
        self.split, self.spec = _split_and_spec(self.log)

    def dataset(self, part: str, purpose: str) -> Dataset:
        cases = getattr(self.split, part)
        records = generate_prefixes(cases, self.log.vocabulary, self.spec.k, purpose)
        return encode_dataset(records, self.spec)

    def sampler(self) -> FeatureSampler:
        train = self.dataset("train", "train")
        return FeatureSampler.fit(self.spec, train.x)


def _load_checked(path: Path, spec: EncodingSpec) -> Checkpoint:
    """The checkpoint at `path`, refused unless it encodes its input as `spec` does."""
    ckpt = load_checkpoint(path)
    trained = ckpt.spec
    if trained == spec:
        return ckpt
    differs = []
    if trained.vocab_size != spec.vocab_size:
        was, now = trained.vocab_size, spec.vocab_size
        differs.append(f"activity count |A| (checkpoint {was}, data {now})")
    elif trained.vocab != spec.vocab:
        i = next(i for i in range(spec.vocab_size) if trained.vocab[i] != spec.vocab[i])
        was, now = trained.vocab[i], spec.vocab[i]
        differs.append(f"activity label {i} (checkpoint {was!r}, data {now!r})")
    for name in ("k", "mean_since_first", "mean_since_prev"):
        was, now = getattr(trained, name), getattr(spec, name)
        if was != now:
            differs.append(f"{name} (checkpoint {was!r}, data {now!r})")
    raise SpecMismatchError(
        f"checkpoint {path}: encoding spec differs from the prepared data's in "
        + "; ".join(differs)
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


def _recorded_checkpoint(path: Path, out_dir: Path) -> Path:
    """How `verify` records a checkpoint: relative to --out if it lies there, else as given.

    So a run directory that is copied or moved reports on its own models.
    """
    try:
        return path.resolve().relative_to(out_dir.resolve())
    except ValueError:
        return path


def _summary_checkpoint(recorded: str | None, out_dir: Path) -> str | None:
    """The checkpoint a summary records: a relative path under --out first, else as written.

    Summaries written before paths were recorded relative to --out hold the
    path as `verify` was given it, relative to the working directory.
    """
    if recorded and not Path(recorded).is_absolute() and (out_dir / recorded).exists():
        return str(out_dir / recorded)
    return recorded


def _threads(settings: Settings, *, used: bool = True) -> int:
    """--threads, validated; a count above W, the threads this process runs on, is warned of."""
    threads = settings.get("threads")
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    workers = thread_workers()
    if used and threads > workers:
        print(
            f"warning: --threads {threads} runs {workers} at a time: one thread per CPU that "
            f"OpenBLAS may use, and one without OpenBLAS",
            file=sys.stderr,
        )
    return threads


def _write_jsonl(path: Path, records):
    write_atomic(path, "".join(json.dumps(record, sort_keys=True) + "\n" for record in records))


def _read_explanations(path: Path, n_features: int) -> list[Explanation]:
    """The records of a JSON-lines file; a bad line is one `ConfigError` naming it."""
    explanations = []
    ids = set()
    # json.loads decodes each line's bytes, so a line that is not UTF-8 is named like any other
    for line_no, line in enumerate(read_bytes(path).splitlines(), 1):
        if not line:
            continue
        where = f"{path}: line {line_no}:"
        try:
            explanation = Explanation.from_record(json.loads(line), n_features)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where} not JSON ({exc.msg})") from None
        except KeyError as exc:
            raise ConfigError(f"{where} missing key {exc}") from None
        except (TypeError, ValueError, AttributeError) as exc:  # AttributeError: not an object
            raise ConfigError(f"{where} malformed record ({exc})") from None
        if explanation.instance_id in ids:
            raise ConfigError(f"{where} instance {explanation.instance_id!r} is repeated")
        ids.add(explanation.instance_id)
        explanations.append(explanation)
    return explanations


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    settings = Settings(args)
    data = settings.get("data")
    if not data:
        raise ConfigError("prepare needs --data (or data= in the config file)")
    out_dir = Path(settings.get("out"))
    seed = settings.get("seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    columns = ColumnMap(
        case=settings.get("case_col"),
        activity=settings.get("activity_col"),
        timestamp=settings.get("timestamp_col"),
    )

    raw = read_bytes(data)
    log = parse_csv(data, columns, data=raw)
    split, spec = _split_and_spec(log)

    prep = out_dir / "prepare"
    write_manifest(
        prep / "manifest.txt",
        {
            "data": data,
            "data.sha256": hashlib.sha256(raw).hexdigest(),
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
            "mean_since_first": repr(spec.mean_since_first),
            "mean_since_prev": repr(spec.mean_since_prev),
            "seed": seed,
        },
    )
    print(
        f"prepared {log.case_count} cases / {log.event_count} events, "
        f"|A|={len(log.vocabulary)}, k={log.k} -> {prep}"
    )
    return 0


# the TrainConfig field each training option fills
_TRAIN_FIELDS = {
    "mode": "mode", "lr": "learning_rate", "xi": "xi", "lam": "lam", "tau": "tau",
    "epochs": "max_epochs", "batch_size": "batch_size", "patience": "patience", "seed": "seed",
}


def _train_config(settings: Settings, **fixed) -> TrainConfig:
    """Fields the running command has no option for keep `TrainConfig`'s defaults."""
    fields = {
        field: settings.get(name) for name, field in _TRAIN_FIELDS.items() if name in settings.args
    }
    return TrainConfig(**fields, **fixed)


def cmd_train(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out"))
    config = _train_config(settings)
    prepared = Prepared(out_dir)

    train_set = prepared.dataset("train", "train")
    val_set = prepared.dataset("validation", "train")
    models = out_dir / "models"
    ckpt, stored = fit_cell(train_set, val_set, prepared.spec, config, models / "cells")
    for h in ckpt.history:
        print(f"epoch {h.epoch:3d}  train {h.train['total']:.4f}  val {h.val['total']:.4f}")

    path = models / f"{config.mode}.ckpt"
    save_checkpoint(ckpt, path)
    history = json.dumps(
        [
            {"epoch": h.epoch, "train": h.train["total"], "val": h.val["total"]}
            for h in ckpt.history
        ]
    )
    write_manifest(
        models / f"{config.mode}.manifest.txt",
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
        f"val loss {ckpt.best_val_loss:.4f})" + (" (stored)" if stored else "")
    )
    return 0


def cmd_gridsearch(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out"))
    grid = settings.get("grid")
    config = _train_config(settings, mode="selfexplain")
    delta = settings.get("delta")
    samples = settings.get("samples")
    limit = settings.get("eval_limit")
    prepared = Prepared(out_dir)

    train_set = prepared.dataset("train", "train")
    val_set = prepared.dataset("validation", "train")
    selection = prepared.dataset("validation", "eval")

    grid_dir = out_dir / "models" / f"grid_{grid}"
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
    out_dir = Path(settings.get("out"))
    method = settings.get("method")
    limit = settings.get("limit")
    if limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {limit}")
    seed = settings.get("seed")
    threads = _threads(settings, used=method == "posthoc")
    prepared = Prepared(out_dir)
    ckpt_path = _checkpoint_path(settings.get("checkpoint"), out_dir, method)
    ckpt = _load_checked(ckpt_path, prepared.spec)

    test_set = prepared.dataset("test", "eval")
    if len(test_set) == 0:
        raise ConfigError("test split yields no evaluation prefixes")
    if method == "selfexplain":
        explanations = explain_selfexplain(
            ckpt.params, test_set, prepared.spec, tau=ckpt.config.tau, limit=limit
        )
    else:
        anchor = AnchorConfig(
            precision_threshold=settings.get("delta"),
            n_samples=settings.get("samples"),
            timeout_s=settings.get("timeout"),
            seed=seed,
        )
        explanations = explain_posthoc(
            ckpt.params, test_set, anchor, prepared.sampler(),
            limit=limit, threads=threads,
        )

    exp_dir = out_dir / "explanations"
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
    out_dir = Path(settings.get("out"))
    method = settings.get("method")
    delta = settings.get("delta")
    samples = settings.get("samples")
    seed = settings.get("seed")
    threads = _threads(settings)
    prepared = Prepared(out_dir)
    ckpt_path = _checkpoint_path(settings.get("checkpoint"), out_dir, method)
    ckpt = _load_checked(ckpt_path, prepared.spec)

    explanations = _read_explanations(
        out_dir / "explanations" / f"{method}.jsonl", prepared.spec.n_features
    )
    test_set = prepared.dataset("test", "eval")
    verified = verify_explanations(
        ckpt.params, test_set, explanations, prepared.sampler(),
        delta=delta, n_samples=samples, seed=seed, threads=threads,
    )
    ver_dir = out_dir / "verification"
    _write_jsonl(ver_dir / f"{method}.jsonl", [e.to_record() for e in verified])
    report = summarize(verified, delta=delta, n_samples=samples, seed=seed)
    write_manifest(
        ver_dir / f"{method}.summary.txt",
        {**report.as_rows(), "checkpoint": _recorded_checkpoint(ckpt_path, out_dir)},
    )
    print(
        f"{method}: existing {100 * report.existing_rate:.2f}%, "
        f"sufficient of existing {100 * report.sufficient_among_existing:.2f}%, "
        f"overall {100 * report.sufficient_overall:.2f}%"
    )
    return 0


def cmd_report(args) -> int:
    settings = Settings(args)
    out_dir = Path(settings.get("out"))
    prepared = Prepared(out_dir)
    test_set = prepared.dataset("test", "eval")
    row_of = {iid: i for i, iid in enumerate(test_set.ids)}

    reports = []
    rendered = []
    for method in ("posthoc", "selfexplain"):
        path = out_dir / "verification" / f"{method}.jsonl"
        if not path.exists():
            continue
        explanations = _read_explanations(path, prepared.spec.n_features)
        summary_path = out_dir / "verification" / f"{method}.summary.txt"
        summary_kv = read_manifest(summary_path)
        try:
            delta = float(summary_kv.get("delta", OPTIONS["delta"].default))
            n_samples = int(summary_kv.get("n_samples", OPTIONS["samples"].default))
            seed = int(summary_kv.get("seed", OPTIONS["seed"].default))
        except ValueError as exc:
            raise ConfigError(f"{summary_path}: malformed value ({exc})") from None
        # the model `verify` used; summaries written before the path was recorded
        # fall back to the method's default checkpoint
        ckpt_path = _checkpoint_path(
            _summary_checkpoint(summary_kv.get("checkpoint"), out_dir), out_dir, method
        )
        ckpt = _load_checked(ckpt_path, prepared.spec)
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
            rendered.append(
                render_explanation(shown, test_set, row_of[shown.instance_id], prepared.spec)
            )
    if not reports:
        raise ConfigError(f"no verification results under {out_dir}; run `verify` first")

    text = format_report(reports)
    if rendered:
        text += "\n\n== example explanations ==\n\n" + "\n\n".join(rendered)
    report_dir = out_dir / "report"
    write_atomic(report_dir / "report.txt", text + "\n")
    _write_jsonl(report_dir / "report.jsonl", [r.as_rows() for r in reports])
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# option groups: every command's, the two training commands', the two explanation commands'
_COMMON = ("out", "seed")
_FIT = ("lam", "tau", "epochs", "batch_size", "patience")
_MODEL = ("method", "checkpoint", "delta", "samples", "threads")

# command: (handler, help, option names)
COMMANDS = {
    "prepare": (cmd_prepare, "parse, split, and fit the encoding",
                (*_COMMON, "data", "case_col", "activity_col", "timestamp_col")),
    "train": (cmd_train, "train one model", (*_COMMON, "mode", "lr", "xi", *_FIT)),
    "gridsearch": (cmd_gridsearch, "hyperparameter grid over lr and xi",
                   (*_COMMON, "grid", *_FIT, "delta", "samples", "eval_limit")),
    "explain": (cmd_explain, "generate explanations on the test split",
                (*_COMMON, *_MODEL, "limit", "timeout")),
    "verify": (cmd_verify, "verify explanation sufficiency", (*_COMMON, *_MODEL)),
    "report": (cmd_report, "aggregate tables and example renderings", _COMMON),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sennap",
        description="Train and evaluate self-explaining next-activity predictors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--config", help="key=value config file; flags override it")
        for option in options:
            kind, default, text = OPTIONS[option]
            if default is not None:
                text += f" (default: {default})"
            parse_as = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument("--" + option.replace("_", "-"), help=text, **parse_as)
        sub.set_defaults(func=handler)
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
