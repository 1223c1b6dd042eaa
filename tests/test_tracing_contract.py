"""The benchmark's tracing contract: every traced function resolves, and a traced
run yields exactly the per-layer metrics `BENCHMARK.json` declares.

`perfbench/tracing.py` wraps the functions its `TARGETS` name.  A target that no
longer resolves drops every metric that reads it, with only a warning on
stderr, and the benchmark's traced runs then end without their declared
result.  This test runs a few tiny traced calls and checks the result's names,
units and values without starting the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

# the tracer patches only the modules already imported, and cli imports every one
from sennap import cli, evaluation, model, posthoc, training  # noqa: F401
from sennap.encoding import Dataset
from sennap.posthoc import AnchorConfig
from sennap.selfexplain import FeatureSampler

ROOT = Path(__file__).resolve().parents[1]


def _head(data: Dataset, n: int) -> Dataset:
    return Dataset(data.x[:n], data.y_activity[:n], data.y_time[:n], data.ids[:n],
                   data.prefix_lengths[:n])


def _tracing(monkeypatch):
    """perfbench/tracing.py, imported from its file (its dataclasses need a module entry)."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(toy_data, monkeypatch):
    tracing = _tracing(monkeypatch)
    spec, train, val, test_eval = toy_data
    sampler = FeatureSampler.fit(spec, train.x)
    tracer = tracing.Tracer("contract")
    tracer.install()
    try:
        assert tracer.missing == []
        t0 = time.perf_counter()
        fitted = {}
        for mode in ("baseline", "selfexplain"):
            config = training.TrainConfig(mode=mode, max_epochs=1, patience=1, seed=3)
            fitted[mode] = training.fit(_head(train, 128), _head(val, 64), spec, config)
        predict = model.make_predictor(fitted["baseline"].params)
        anchor = AnchorConfig(n_samples=10, timeout_s=1e-9, seed=1)  # one round
        posthoc.greedy_anchor_search(predict, test_eval.x[0].reshape(-1), anchor, sampler,
                                     evaluation.instance_rng(anchor.seed, test_eval.ids[0]))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer, 1, wall, tracing.span_cost_s(200))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, (value, _) in metrics.items():
        json.dumps(value, allow_nan=False)  # strict JSON, as the result line is parsed
        assert np.isfinite(value), name
    # the traced calls ran inside the wrappers
    assert metrics["neural.lstm_layer.bwd_ms.b64"][0] > 0.0
    assert metrics["posthoc.samples_used"][0] >= anchor.n_samples
