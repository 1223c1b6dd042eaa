"""Acceptance suite: one test per release criterion, printed pass/fail.

Criteria 1-5 exercise the full Helpdesk protocol (baseline training, both
hyperparameter grids, the post-hoc comparison on 200 test prefixes).  The
Helpdesk ticket log is not redistributable with this repository; point
SENNAP_HELPDESK_CSV at a local copy (4TU research-data collection,
columns CaseID/ActivityID/CompleteTimestamp) to enable them.  Expect roughly
a working day of CPU time for the grids and the post-hoc search; set
SENNAP_ACCEPT_DIR to a persistent directory to resume interrupted runs.

Criteria 6-8 are self-contained and run in seconds.
"""

from __future__ import annotations

import csv
import math
import os
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from sennap.cli import main
from sennap.encoding import Dataset
from sennap.errors import SennapError
from sennap.evaluation import Explanation, accuracy, summarize
from sennap.model import forward_graph, init_model
from sennap.neural import (
    add,
    constant,
    dense,
    dropout_mask,
    init_batchnorm,
    init_dense,
    init_lstm,
    batch_norm,
    l1_batch_mean,
    lstm_layer,
    mae_loss,
    mul,
    softmax_cross_entropy,
)
from sennap.posthoc import estimate_precision
from sennap.selfexplain import FeatureSampler, dual_propagate
from sennap.training import (
    TrainConfig,
    fit,
    grid_plan,
    grid_search,
    load_checkpoint,
    save_checkpoint,
)

from oracles import lstm_cell_step, max_rel_error

HELPDESK_ENV = "SENNAP_HELPDESK_CSV"
CACHE_ENV = "SENNAP_ACCEPT_DIR"

needs_helpdesk = pytest.mark.skipif(
    not os.environ.get(HELPDESK_ENV),
    reason=(
        f"Helpdesk event log not available; set {HELPDESK_ENV} to the CSV "
        "from the 4TU research-data collection to run the full protocol"
    ),
)


def check(name: str, condition: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if condition else 'FAIL'}  {detail}")
    assert condition, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1-5: Helpdesk protocol (dataset-gated)
# ---------------------------------------------------------------------------


def _helpdesk_columns(path: Path) -> list[str]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        header = next(csv.reader(handle))
    if "CaseID" in header:
        return ["--case-col", "CaseID", "--activity-col", "ActivityID",
                "--timestamp-col", "CompleteTimestamp"]
    return []


def _run(args):
    code = main(args)
    if code != 0:
        raise SennapError(f"command failed: {' '.join(args)}")


@pytest.fixture(scope="session")
def helpdesk(tmp_path_factory):
    """Run the complete Helpdesk protocol once, resuming finished stages.

    Budgets default to the real protocol and can be shrunk via environment
    variables (SENNAP_ACCEPT_EPOCHS / _LIMIT / _SAMPLES / _TIMEOUT / _THREADS)
    to smoke-test this harness on a stand-in log; the asserted thresholds
    never change.
    """
    data = os.environ.get(HELPDESK_ENV)
    if not data:
        pytest.skip(f"set {HELPDESK_ENV} to run the Helpdesk criteria")
    epochs = os.environ.get("SENNAP_ACCEPT_EPOCHS", "150")
    limit = os.environ.get("SENNAP_ACCEPT_LIMIT", "200")
    samples = os.environ.get("SENNAP_ACCEPT_SAMPLES", "100")
    timeout = os.environ.get("SENNAP_ACCEPT_TIMEOUT", "600")
    threads = os.environ.get("SENNAP_ACCEPT_THREADS", "1")
    cache = os.environ.get(CACHE_ENV)
    out = Path(cache) if cache else tmp_path_factory.mktemp("helpdesk")
    out.mkdir(parents=True, exist_ok=True)
    cols = _helpdesk_columns(Path(data))
    base = ["--data", data, "--out", str(out), "--seed", "7", *cols]

    if not (out / "prepare" / "manifest.txt").exists():
        _run(["prepare", *base])
    if not (out / "models" / "baseline.ckpt").exists():
        _run(["train", "--out", str(out), "--seed", "7",
              "--mode", "baseline", "--lr", "0.002", "--epochs", epochs])
    for grid in ("full", "small"):
        if not (out / "models" / f"grid_{grid}" / "selected.ckpt").exists():
            _run(["gridsearch", "--out", str(out), "--seed", "7", "--grid", grid,
                  "--epochs", epochs, "--samples", samples,
                  "--eval-limit", limit])
    # explanations for both grid selections plus the post-hoc baseline
    for grid in ("full", "small"):
        marker = out / "explanations" / f"selfexplain_{grid}.jsonl"
        if not marker.exists():
            _run(["explain", "--out", str(out), "--seed", "7",
                  "--method", "selfexplain", "--limit", limit,
                  "--checkpoint", str(out / "models" / f"grid_{grid}" / "selected.ckpt")])
            (out / "explanations" / "selfexplain.jsonl").rename(marker)
    if not (out / "explanations" / "posthoc.jsonl").exists():
        _run(["explain", "--out", str(out), "--seed", "7", "--method", "posthoc",
              "--limit", limit, "--timeout", timeout, "--samples", samples,
              "--threads", threads])
    for grid in ("full", "small"):
        marker = out / "verification" / f"selfexplain_{grid}.jsonl"
        if not marker.exists():
            src = out / "explanations" / f"selfexplain_{grid}.jsonl"
            src.rename(out / "explanations" / "selfexplain.jsonl")
            _run(["verify", "--out", str(out), "--seed", "7",
                  "--method", "selfexplain", "--delta", "0.95",
                  "--samples", samples, "--threads", threads,
                  "--checkpoint", str(out / "models" / f"grid_{grid}" / "selected.ckpt")])
            (out / "explanations" / "selfexplain.jsonl").rename(src)
            (out / "verification" / "selfexplain.jsonl").rename(marker)
    if not (out / "verification" / "posthoc.jsonl").exists():
        _run(["verify", "--out", str(out), "--seed", "7", "--method", "posthoc",
              "--delta", "0.95", "--samples", samples, "--threads", threads])
    return out


def _helpdesk_metrics(out: Path):
    import json

    from sennap.cli import Prepared

    prepared = Prepared(out)
    test_set = prepared.dataset("test", "eval")

    def load_expl(name):
        path = out / "verification" / f"{name}.jsonl"
        return [
            Explanation.from_record(json.loads(line))
            for line in path.read_text().splitlines()
            if line
        ]

    baseline = load_checkpoint(out / "models" / "baseline.ckpt")
    full = load_checkpoint(out / "models" / "grid_full" / "selected.ckpt")
    small = load_checkpoint(out / "models" / "grid_small" / "selected.ckpt")
    return {
        "test_set": test_set,
        "acc_baseline": accuracy(baseline.params, test_set),
        "acc_full": accuracy(full.params, test_set),
        "acc_small": accuracy(small.params, test_set),
        "expl_full": load_expl("selfexplain_full"),
        "expl_small": load_expl("selfexplain_small"),
        "expl_posthoc": load_expl("posthoc"),
    }


@pytest.fixture(scope="session")
def helpdesk_metrics(helpdesk):
    return _helpdesk_metrics(helpdesk)


@needs_helpdesk
class TestHelpdeskCriteria:
    def test_c0_log_shape_and_normalizers(self, helpdesk):
        """Parsed Helpdesk shape: 4580 cases, 21348 events, 14 activities, k=15."""
        from sennap.training import read_manifest

        manifest = read_manifest(helpdesk / "prepare" / "manifest.txt")
        shape = (
            int(manifest["cases"]),
            int(manifest["events"]),
            int(manifest["activities"]),
            int(manifest["k"]),
        )
        check(
            "C0 Helpdesk parses to 4580/21348/14/15",
            shape == (4580, 21348, 14, 15),
            f"got {shape}",
        )
        check(
            "C0 normalizer means strictly positive",
            float(manifest["mean_since_first"]) > 0
            and float(manifest["mean_since_prev"]) > 0,
        )

    def test_c1_baseline_accuracy(self, helpdesk_metrics):
        acc = helpdesk_metrics["acc_baseline"]
        check("C1 baseline Helpdesk accuracy >= 0.62", acc >= 0.62, f"acc={acc:.4f}")

    def test_c2_no_degradation(self, helpdesk_metrics):
        base = helpdesk_metrics["acc_baseline"]
        best = helpdesk_metrics["acc_full"]
        check(
            "C2 grid-selected accuracy within 0.07 of baseline",
            best >= base - 0.07,
            f"baseline={base:.4f} selfexplain={best:.4f}",
        )

    def test_c3_faithfulness_dominance(self, helpdesk_metrics):
        full = summarize(helpdesk_metrics["expl_full"])
        small = summarize(helpdesk_metrics["expl_small"])
        post = summarize(helpdesk_metrics["expl_posthoc"])
        detail = (
            f"full={full.sufficient_overall:.4f} small={small.sufficient_overall:.4f} "
            f"posthoc={post.sufficient_overall:.4f}"
        )
        check("C3 full-grid faithfulness >= 0.30", full.sufficient_overall >= 0.30, detail)
        check("C3 small-grid faithfulness >= 0.55", small.sufficient_overall >= 0.55, detail)
        check(
            "C3 self-explaining beats post-hoc overall sufficiency",
            full.sufficient_overall > post.sufficient_overall
            and small.sufficient_overall > post.sufficient_overall,
            detail,
        )

    def test_c4_latency_gap(self, helpdesk_metrics):
        senn_time = summarize(helpdesk_metrics["expl_full"]).mean_time_s
        post_time = summarize(helpdesk_metrics["expl_posthoc"]).mean_time_s
        detail = f"selfexplain={senn_time:.5f}s posthoc={post_time:.2f}s"
        check("C4 self-explaining latency <= 0.1 s", senn_time <= 0.1, detail)
        check("C4 at least 100x faster than post-hoc", post_time >= 100 * senn_time, detail)

    def test_c5_small_xi_size_effect(self, helpdesk_metrics):
        full = summarize(helpdesk_metrics["expl_full"]).mean_size
        small = summarize(helpdesk_metrics["expl_small"]).mean_size
        check(
            "C5 small-xi mean size >= full-xi mean size",
            small >= full,
            f"small={small:.2f} full={full:.2f}",
        )


# ---------------------------------------------------------------------------
# criterion 6: numeric-core property suite
# ---------------------------------------------------------------------------


class TestC6NumericCore:
    def test_gradient_checks_all_layer_types(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)

            d = init_dense(rng, 4, 3, np.float64)
            x = constant(rng.normal(0, 1, (3, 4)))
            y = rng.integers(0, 3, 3)
            worst = max(worst, max_rel_error(
                lambda: softmax_cross_entropy(dense(x, d), y), [d.W, d.b], rng
            ))

            lp = init_lstm(rng, 3, 4, np.float64)
            xs = constant(rng.normal(0, 1, (2, 4, 3)))
            head = init_dense(rng, 4, 3, np.float64)
            y2 = rng.integers(0, 3, 2)

            def lstm_loss():
                from sennap.neural import last_step

                return softmax_cross_entropy(
                    dense(last_step(lstm_layer(xs, lp)), head), y2
                )

            worst = max(worst, max_rel_error(
                lstm_loss, [p for _, p in lp.named("l")], rng, entries_per_var=2
            ))

            bn = init_batchnorm(4, np.float64)
            xb = constant(rng.normal(0, 1, (6, 4)))
            yb = rng.integers(0, 4, 6)
            worst = max(worst, max_rel_error(
                lambda: softmax_cross_entropy(
                    batch_norm(xb, bn, train=True, update_running=False), yb
                ),
                [bn.gamma, bn.beta], rng,
            ))

            mask = constant(dropout_mask(rng, (3, 3), 0.3, np.float64))
            d2 = init_dense(rng, 4, 3, np.float64)
            target = rng.normal(0, 1, (3, 3))
            worst = max(worst, max_rel_error(
                lambda: mae_loss(mul(dense(x, d2), mask), target), [d2.W, d2.b], rng
            ))
        check("C6 gradient checks (20 seeds, all layer types)", worst < 1e-3,
              f"max rel err={worst:.2e}")

    def test_full_model_gradient(self):
        rng = np.random.default_rng(77)
        params = init_model(2, 3, selfexplain=True, seed=5, dtype=np.float64)
        params.dropout = 0.0
        x = rng.random((2, 3, 7))
        y_act = np.array([0, 2])
        y_time = np.array([0.4, -0.2])

        def loss():
            out = forward_graph(params, x, train=True, bn_update=False)
            ce = softmax_cross_entropy(out.nap_logits, y_act)
            mae = mae_loss(out.time_pred, y_time)
            from sennap.neural import scale

            return add(add(ce, mae), scale(l1_batch_mean(out.exp_scores), 1e-2))

        worst = max_rel_error(loss, [p for _, p in params.named_parameters()], rng,
                              entries_per_var=2)
        check("C6 full-model gradient vs finite differences", worst < 1e-3,
              f"max rel err={worst:.2e}")

    def test_lstm_closed_forms(self):
        params = init_lstm(np.random.default_rng(0), 2, 1, np.float64)
        for _, p in params.named("z"):
            p.value = np.zeros_like(p.value)
        h, c = lstm_cell_step(params, np.zeros(1), np.array([1.0]), np.zeros(2))
        ok = math.isclose(c[0], 0.5) and math.isclose(h[0], 0.5 * math.tanh(0.5))
        check("C6 LSTM closed form c_t = 0.5*c_prev under zero weights", ok,
              f"c={c[0]:.6f} h={h[0]:.6f}")

    def test_cross_entropy_uniform(self):
        for n_classes in (2, 4, 7):
            loss = softmax_cross_entropy(
                constant(np.zeros((1, n_classes))), np.array([0])
            )
            assert float(loss.value) == pytest.approx(math.log(n_classes))
        check("C6 cross-entropy of uniform logits = ln c", True)

    def test_masking_identity_on_every_batch(self, toy_data):
        spec, train, _, _ = toy_data
        params = init_model(spec.vocab_size, spec.k, selfexplain=True, seed=9)
        sampler = FeatureSampler.fit(spec, train.x)
        rng = np.random.default_rng(4)
        holds = True
        for start in range(0, min(len(train), 192), 64):
            x = train.x[start : start + 64]
            dual = dual_propagate(params, x, 0.5, sampler, rng, train=True)
            flat = x.reshape(x.shape[0], -1)
            holds &= bool(
                np.array_equal(dual.masked_flat[dual.subset], flat[dual.subset])
            )
        check("C6 masking identity z_S = x_S on every batch", holds)

    def test_checkpoint_determinism(self, toy_data, tmp_path):
        spec, train, val, _ = toy_data
        small_train = Dataset(train.x[:64], train.y_activity[:64], train.y_time[:64],
                              train.ids[:64], train.prefix_lengths[:64])
        small_val = Dataset(val.x[:16], val.y_activity[:16], val.y_time[:16],
                            val.ids[:16], val.prefix_lengths[:16])
        config = TrainConfig(mode="selfexplain", xi=1e-6, max_epochs=3,
                             patience=5, seed=123)
        blobs = []
        for name in ("one", "two"):
            ckpt = fit(small_train, small_val, spec, config)
            path = tmp_path / f"{name}.ckpt"
            save_checkpoint(ckpt, path)
            blobs.append(path.read_bytes())
        check("C6 identical seeds give identical checkpoints", blobs[0] == blobs[1])


# ---------------------------------------------------------------------------
# criterion 7: Monte-Carlo sufficiency vs exhaustive enumeration
# ---------------------------------------------------------------------------


class _GridSampler:
    """Discretized D: every feature uniform over the same finite grid."""

    def __init__(self, n, values=(0.0, 0.25, 0.5, 0.75, 1.0)):
        self.n_features = n
        self.values = np.asarray(values, dtype=np.float32)

    def draw(self, rng, count):
        picks = rng.integers(0, len(self.values), size=(count, self.n_features))
        return self.values[picks]


def _exhaustive_precision(predict, x, subset, values):
    """Exact preservation probability by enumerating the complement grid."""
    x = np.asarray(x, dtype=np.float32)
    target = int(predict(x[None])[0])
    free = [i for i in range(x.size) if i not in set(subset)]
    if not free:
        return 1.0
    hits = 0
    total = 0
    for combo in product(values, repeat=len(free)):
        z = x.copy()
        z[free] = combo
        hits += int(predict(z[None])[0] == target)
        total += 1
    return hits / total


class TestC7SufficiencyOracle:
    def test_monte_carlo_matches_enumeration(self):
        values = (0.0, 0.25, 0.5, 0.75, 1.0)

        def model_and(X):
            X = np.atleast_2d(X)
            return ((X[:, 0] > 0.4) & (X[:, 1] > 0.6)).astype(np.int64)

        def model_sum(X):
            X = np.atleast_2d(X)
            return (X[:, 0] + X[:, 1] > X[:, 2]).astype(np.int64)

        def model_xor(X):
            X = np.atleast_2d(X)
            return ((X[:, 0] > 0.4) ^ (X[:, 1] > 0.4)).astype(np.int64)

        cases = [
            (model_and, np.array([0.9, 0.9]), []),
            (model_and, np.array([0.9, 0.9]), [0]),
            (model_and, np.array([0.9, 0.2]), [1]),
            (model_sum, np.array([0.75, 0.75, 0.25]), []),
            (model_sum, np.array([0.75, 0.75, 0.25]), [2]),
            (model_sum, np.array([0.75, 0.75, 0.25]), [0, 1]),
            (model_xor, np.array([1.0, 0.0]), []),
            (model_xor, np.array([1.0, 0.0]), [0]),
        ]
        worst = 0.0
        for idx, (predict, x, subset) in enumerate(cases):
            sampler = _GridSampler(x.size, values)
            exact = _exhaustive_precision(predict, x, subset, values)
            estimate = estimate_precision(
                predict, x.astype(np.float32), np.array(subset, dtype=int),
                sampler, 10_000, np.random.default_rng(900 + idx),
            )
            worst = max(worst, abs(exact - estimate))
        check("C7 Monte-Carlo vs exhaustive enumeration within 0.02", worst <= 0.02,
              f"max gap={worst:.4f}")


# ---------------------------------------------------------------------------
# criterion 8: protocol arithmetic
# ---------------------------------------------------------------------------


class TestC8ProtocolArithmetic:
    def test_grid_cardinalities(self, toy_data):
        check("C8 full grid has exactly 30 combinations", len(grid_plan("full")) == 30)
        check("C8 small grid has exactly 10 combinations", len(grid_plan("small")) == 10)

        spec, train, val, _ = toy_data
        micro_train = Dataset(train.x[:10], train.y_activity[:10], train.y_time[:10],
                              train.ids[:10], train.prefix_lengths[:10])
        micro_val = Dataset(val.x[:4], val.y_activity[:4], val.y_time[:4],
                            val.ids[:4], val.prefix_lengths[:4])
        config = TrainConfig(max_epochs=1, patience=1, seed=6)
        result_full, _ = grid_search(
            micro_train, micro_val, spec, config, grid="full",
            selection_limit=2, n_samples=4,
        )
        result_small, _ = grid_search(
            micro_train, micro_val, spec, config, grid="small",
            selection_limit=2, n_samples=4,
        )
        check("C8 full grid_search produces 30 rows", len(result_full.cells) == 30)
        check("C8 small grid_search produces 10 rows", len(result_small.cells) == 10)

    def test_report_identity_exact(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 300))
            timeouts = int(rng.integers(0, n + 1))
            sufficient = int(rng.integers(0, n - timeouts + 1))
            records = []
            for i in range(n):
                if i < timeouts:
                    records.append(Explanation(f"i{i}", "posthoc", (), None, 1.0,
                                               status="timeout"))
                else:
                    records.append(Explanation(
                        f"i{i}", "posthoc", (0,), None, 0.1, status="found",
                        sufficient=i < timeouts + sufficient,
                    ))
            report = summarize(records)
            gap = abs(
                report.sufficient_overall
                - report.existing_rate * report.sufficient_among_existing
            )
            worst = max(worst, gap)
        check("C8 overall = existing x among-existing (within 0.1 pp)",
              worst < 1e-3, f"max gap={worst:.2e}")
