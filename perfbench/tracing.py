"""In-memory spans around the program's public functions, and the per-module
metrics derived from them.

The tracer wraps functions from the outside: it swaps each target in every
``sennap`` module namespace that holds it, so calls from inside the package
are seen too.  A span records its name, start, end, the span that was open
in the same thread when it began (its parent), the thread, and a few
attributes of the call.  Spans stay in memory until ``write`` at the end.

Roots opened in worker threads (the program's thread pools) are attached to
the innermost span that was open in the main thread when they began, which
is the call that is blocked waiting for them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODULES = ("eventlog", "encoding", "neural", "model", "selfexplain", "training",
           "posthoc", "evaluation", "cli")

# wrapped targets: span name -> (module, attribute path)
TARGETS = {
    "eventlog.parse_csv": ("eventlog", "parse_csv"),
    "encoding.encode_dataset": ("encoding", "encode_dataset"),
    "neural.lstm_layer": ("neural", "lstm_layer"),
    "neural.batch_norm": ("neural", "batch_norm"),
    "neural.dense": ("neural", "dense"),
    "neural.masked_blend": ("neural", "masked_blend"),
    "neural.softmax_cross_entropy": ("neural", "softmax_cross_entropy"),
    "neural.backward": ("neural", "backward"),
    "neural.adam_step": ("neural", "adam_step"),
    "model.forward_graph": ("model", "forward_graph"),
    "model.make_predictor": ("model", "make_predictor"),
    "selfexplain.dual_propagate": ("selfexplain", "dual_propagate"),
    "selfexplain.senn_losses": ("selfexplain", "senn_losses"),
    "selfexplain.FeatureSampler.draw": ("selfexplain", "FeatureSampler.draw"),
    "training.fit": ("training", "fit"),
    "training.grid_search": ("training", "grid_search"),
    "training.save_checkpoint": ("training", "save_checkpoint"),
    "training.load_checkpoint": ("training", "load_checkpoint"),
    "posthoc.greedy_anchor_search": ("posthoc", "greedy_anchor_search"),
    "posthoc.estimate_precision": ("posthoc", "estimate_precision"),
    "evaluation.accuracy": ("evaluation", "accuracy"),
    "evaluation.explain_selfexplain": ("evaluation", "explain_selfexplain"),
    "evaluation.explain_posthoc": ("evaluation", "explain_posthoc"),
    "evaluation.verify_explanations": ("evaluation", "verify_explanations"),
    "evaluation.verify_sufficiency": ("evaluation", "verify_sufficiency"),
    "cli.main": ("cli", "main"),
}


def _rows(x) -> int:
    value = getattr(x, "value", x)
    return int(np.shape(value)[0]) if np.ndim(value) else 1


def _stage(argv) -> str:
    """Protocol stage of a CLI call: the subcommand, plus its grid or method."""
    argv = list(argv)
    for flag in ("--grid", "--method"):
        if flag in argv:
            return f"{argv[0]}.{argv[argv.index(flag) + 1]}"
    return argv[0]


def _call_info(name, args, kwargs) -> dict:
    """Attributes read from a call's arguments before it runs."""
    if name == "cli.main":
        return {"stage": _stage(args[0] if args else kwargs["argv"])}
    if name in ("neural.lstm_layer", "neural.batch_norm", "neural.dense"):
        return {"rows": _rows(args[0])}
    if name == "model.forward_graph":
        return {"rows": _rows(args[1]), "train": bool(kwargs.get("train")),
                "nap_only": bool(kwargs.get("nap_only", False))}
    if name == "selfexplain.dual_propagate":
        return {"rows": _rows(args[1]), "train": bool(kwargs.get("train", True))}
    if name == "selfexplain.FeatureSampler.draw":
        return {"rows": int(args[2] if len(args) > 2 else kwargs["count"])}
    if name == "training.fit":
        config = args[3] if len(args) > 3 else kwargs["config"]
        return {"mode": config.mode, "rows": len(args[0]), "epochs": config.max_epochs}
    if name == "training.save_checkpoint":
        return {"path": args[1] if len(args) > 1 else kwargs["path"]}
    return {}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one run; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._open_main: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args=(), kwargs=None, info=None, on_result=None):
        """Run fn(*args, **kwargs) inside a span; on_result may add attributes."""
        kwargs = kwargs or {}
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._main and self._open_main:
            parent = self._open_main[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        if thread == self._main:
            self._open_main.append(sid)
        info = dict(info or {})
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if thread == self._main:
                self._open_main.pop()
        if on_result is not None:
            on_result(result, info)
        self.spans.append(Span(sid, parent, name, start, end, thread, info))
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        def on_result(result, info):
            if name == "neural.lstm_layer":
                inner = result._backward
                rows = info["rows"]
                result._backward = lambda g: tracer.span(
                    "neural.lstm_layer.backward", inner, (g,), info={"rows": rows})
            elif name == "eventlog.parse_csv":
                info["events"] = result.event_count
            elif name == "encoding.encode_dataset":
                info["rows"] = len(result)
            elif name == "posthoc.greedy_anchor_search":
                info.update(status=result.status, rounds=result.rounds,
                            samples=result.samples_used)
            elif name == "training.save_checkpoint":
                info["bytes"] = os.path.getsize(info.pop("path"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs,
                                 info=_call_info(name, args, kwargs), on_result=on_result)
            if name == "model.make_predictor":
                return tracer._wrap_predict(result)
            return result

        return wrapper

    def _wrap_predict(self, predict):
        def traced_predict(flat):
            return self.span("model.predict", predict, (flat,), info={"rows": _rows(flat)})
        return traced_predict

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every target that exists; record the names that do not."""
        package = [m for n, m in sys.modules.items() if n == "sennap" or n.startswith("sennap.")]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(f"sennap.{module_name}")
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: patch the class once
                self._patch(owner, leaf, wrapper)
                continue
            for mod in package:
                if getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path):
        """Write spans as JSON lines: one header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "missing": self.missing}) + "\n")
            for s in self.spans:
                handle.write(json.dumps([self.run_id, s.sid, s.parent, s.name, s.start,
                                         s.end, s.thread, s.info]) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one span over a bare call, in seconds."""
    tracer = Tracer("calibration")
    noop = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        tracer.span("calibration", noop)
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / samples


# ---------------------------------------------------------------------------
# per-module metrics
# ---------------------------------------------------------------------------

CLI_STAGES = ("prepare", "train", "gridsearch.full", "gridsearch.small", "explain.selfexplain",
              "explain.posthoc", "verify.selfexplain", "verify.posthoc", "report")


class _Index:
    def __init__(self, spans: list[Span]):
        self.by_id = {s.sid: s for s in spans}
        self.named: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.named.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def get(self, name, **match) -> list[Span]:
        return [s for s in self.named.get(name, ())
                if all(s.info.get(k) == v for k, v in match.items())]

    def within(self, span: Span, name: str) -> list[Span]:
        """Descendants of span called name, across threads."""
        out, todo = [], list(self.children.get(span.sid, ()))
        while todo:
            s = todo.pop()
            if s.name == name:
                out.append(s)
            todo.extend(self.children.get(s.sid, ()))
        return out


def _mean_ms(spans) -> float:
    return 1e3 * float(np.mean([s.dur for s in spans])) if spans else 0.0


def _rate(spans, key: str) -> float:
    total = sum(s.dur for s in spans)
    return sum(s.info[key] for s in spans) / total if total > 0 else 0.0


def _steps(ix: _Index, fit: Span) -> list[float]:
    """Optimiser-step walls inside one fit: first train-mode forward to adam_step end."""
    steps, start = [], None
    for child in sorted(ix.children.get(fit.sid, ()), key=lambda s: s.start):
        if child.thread != fit.thread:
            continue
        if child.name in ("model.forward_graph", "selfexplain.dual_propagate") \
                and child.info.get("train") and start is None:
            start = child.start
        elif child.name == "neural.adam_step" and start is not None:
            steps.append(child.end - start)
            start = None
    return steps


def _share(ix: _Index, outer: list[Span], inner: str) -> float:
    """Time in `inner` spans over the wall of `outer`, per thread that ran them."""
    busy, wall = 0.0, 0.0
    for s in outer:
        found = ix.within(s, inner)
        busy += sum(i.dur for i in found)
        wall += s.dur * max(len({i.thread for i in found}), 1)
    return busy / wall if wall > 0 else 0.0


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(tracer: Tracer, threads: int, wall_s: float, span_cost: float) -> dict:
    """Per-module metrics as {name: (value, unit)}; a metric whose wrapped
    function no longer exists is left out instead of reading zero."""
    ix = _Index(tracer.spans)
    get = ix.get
    out: dict[str, tuple[float, str]] = {}

    def put(name, unit, sources, compute):
        if not any(src in tracer.missing for src in sources):
            out[name] = (float(compute()), unit)

    fits = get("training.fit")
    for mode in ("baseline", "selfexplain"):
        put(f"training.step_ms.{mode}", "ms", ["training.fit", "neural.adam_step"],
            lambda mode=mode: 1e3 * float(np.mean(
                [w for f in fits if f.info["mode"] == mode for w in _steps(ix, f)] or [0.0])))

    def epoch_overhead():
        per_epoch = [(f.dur - sum(_steps(ix, f))) / f.info["epochs"] for f in fits]
        return float(np.mean(per_epoch)) if per_epoch else 0.0
    put("training.epoch_overhead_s", "s", ["training.fit", "neural.adam_step"], epoch_overhead)
    put("model.forward_graph.train_ms", "ms", ["model.forward_graph"],
        lambda: _mean_ms(get("model.forward_graph", train=True, nap_only=False, rows=64)))
    put("neural.backward_ms", "ms", ["neural.backward"], lambda: _mean_ms(get("neural.backward")))
    put("neural.adam_step_ms", "ms", ["neural.adam_step"], lambda: _mean_ms(get("neural.adam_step")))
    for b in (1, 64, 100, 512):
        put(f"neural.lstm_layer.fwd_ms.b{b}", "ms", ["neural.lstm_layer"],
            lambda b=b: _mean_ms(get("neural.lstm_layer", rows=b)))
    put("neural.lstm_layer.bwd_ms.b64", "ms", ["neural.lstm_layer"],
        lambda: _mean_ms(get("neural.lstm_layer.backward", rows=64)))
    for op in ("batch_norm", "dense", "masked_blend", "softmax_cross_entropy"):
        put(f"neural.{op}.fwd_ms", "ms", [f"neural.{op}"], lambda op=op: _mean_ms(get(f"neural.{op}")))
    put("selfexplain.dual_propagate_ms", "ms", ["selfexplain.dual_propagate"],
        lambda: _mean_ms(get("selfexplain.dual_propagate", train=True)))
    put("selfexplain.sampler_draw.rows_per_s", "rows/s", ["selfexplain.FeatureSampler.draw"],
        lambda: _rate(get("selfexplain.FeatureSampler.draw"), "rows"))
    for b in (1, 100, 512):
        put(f"model.predict.rows_per_s.b{b}", "rows/s", ["model.forward_graph"],
            lambda b=b: _rate(get("model.forward_graph", train=False, nap_only=True, rows=b), "rows"))

    searches = get("posthoc.greedy_anchor_search")
    search_src = ["posthoc.greedy_anchor_search", "model.make_predictor"]
    put("posthoc.predict_share", "share", search_src, lambda: _share(ix, searches, "model.predict"))
    put("posthoc.estimate_precision_ms", "ms", ["posthoc.estimate_precision"],
        lambda: _mean_ms(get("posthoc.estimate_precision")))
    put("posthoc.rounds", "count", search_src[:1], lambda: sum(s.info["rounds"] for s in searches))
    put("posthoc.samples_used", "count", search_src[:1], lambda: sum(s.info["samples"] for s in searches))
    put("posthoc.timeouts", "count", search_src[:1],
        lambda: sum(s.info["status"] == "timeout" for s in searches))
    put("evaluation.verify.predict_share", "share",
        ["evaluation.verify_explanations", "model.make_predictor"],
        lambda: _share(ix, get("evaluation.verify_explanations"), "model.predict"))

    # grid figures are per protocol (a protocol runs both grids once)
    grids = get("training.grid_search")
    grid_src = ["training.grid_search", "training.fit"]
    cells = [f for g in grids for f in ix.within(g, "training.fit")]
    protocols = len(get("cli.main", stage="gridsearch.full")) or 1
    put("training.grid.cells_trained", "count", grid_src, lambda: len(cells) / protocols)
    put("training.grid.cell_s", "s", grid_src,
        lambda: sum(g.dur for g in grids) / len(cells) if cells else 0.0)
    put("training.grid.selection_s", "s", grid_src,
        lambda: (sum(g.dur for g in grids) - sum(f.dur for f in cells)) / protocols)
    saves = get("training.save_checkpoint")
    put("training.checkpoint.save_ms", "ms", ["training.save_checkpoint"], lambda: _mean_ms(saves))
    put("training.checkpoint.load_ms", "ms", ["training.load_checkpoint"],
        lambda: _mean_ms(get("training.load_checkpoint")))
    put("training.checkpoint.bytes", "bytes", ["training.save_checkpoint"],
        lambda: float(np.mean([s.info["bytes"] for s in saves])) if saves else 0.0)
    put("eventlog.parse_csv.events_per_s", "events/s", ["eventlog.parse_csv"],
        lambda: _rate(get("eventlog.parse_csv"), "events"))
    put("encoding.encode_dataset.prefixes_per_s", "prefixes/s", ["encoding.encode_dataset"],
        lambda: _rate(get("encoding.encode_dataset"), "rows"))

    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = (_mean_ms(get("cli.main", stage=stage)) / 1e3, "s")
    for stage, inner in (("explain.posthoc", "posthoc.greedy_anchor_search"),
                         ("verify.posthoc", "evaluation.verify_sufficiency")):
        runs = get("cli.main", stage=stage)

        def efficiency(runs=runs, inner=inner):
            busy = sum(i.dur for s in runs for i in ix.within(s, inner))
            wall = sum(s.dur for s in runs)
            return busy / (wall * threads) if wall > 0 else 0.0
        put(f"cli.{stage}.parallel_efficiency", "share", [inner], efficiency)

    selftime = dict.fromkeys(MODULES, 0.0)
    for s in tracer.spans:
        selftime[s.name.split(".")[0]] += s.dur - _covered(s, ix.children.get(s.sid, []))
    for module in MODULES:
        out[f"selftime.{module}_s"] = (selftime[module], "s")
    out["trace.spans"] = (float(len(tracer.spans)), "count")
    out["trace.overhead_pct"] = (100.0 * span_cost * len(tracer.spans) / wall_s if wall_s > 0 else 0.0, "%")
    return out
