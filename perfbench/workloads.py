"""The benchmark's four workloads and the checks on their outputs.

Each workload is a closed loop in one process: a call into the program starts
only after the previous one returned.  ``run_*`` returns the workload's
set-up time, its end-to-end figures (``detail``, named as in README.md) and
the single ``throughput`` figure that every workload reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
# calls go through the module attributes, so that a traced run sees them
from sennap import cli, encoding, evaluation, eventlog, model, posthoc, training
from sennap.encoding import Dataset, EncodingSpec
from sennap.eventlog import ColumnMap
from sennap.posthoc import AnchorConfig
from sennap.selfexplain import FeatureSampler
from sennap.training import TrainConfig

DELTA = 0.95          # the paper's sufficiency threshold
SAMPLES = 100         # the paper's Monte-Carlo samples per estimate
SETUP_REPEATS = 3     # set-ups run at least this often
SETUP_MIN_S = 3.0     # and for at least this long

# train: one call is one fit of TRAIN_EPOCHS over TRAIN_ROWS prefixes
TRAIN_ROWS = 1024
TRAIN_VAL_ROWS = 128
TRAIN_EPOCHS = 2

# explain and posthoc: checkpoints trained in set-up, then rounds of calls
CKPT_BASELINE = dict(rows=2048, epochs=3, learning_rate=0.003)
CKPT_SELFEXPLAIN = dict(rows=1024, epochs=2, learning_rate=0.002)
CKPT_VAL_ROWS = 256
SELFEXPLAIN_PER_ROUND = 200
VERIFY_PER_ROUND = 100
POSTHOC_TIMEOUT_S = 12.0   # above one greedy round (~7 s here), so rounds complete
SEARCH_S_PER_ROUND = 10.0  # searches go on until their wall reaches this
PROBE_MARGIN = 0.15        # the found-path probe's threshold lies this far below its empty anchor

# protocol: tiny budgets through the CLI, on the small log
PROTOCOL_EPOCHS = 1
PROTOCOL_EVAL_LIMIT = 1
PROTOCOL_EXPLAIN_LIMIT = 20
PROTOCOL_POSTHOC_LIMIT = 2
PROTOCOL_TIMEOUT_S = 0.5

PROBE_SEED = 0  # the determinism probe always trains on the same log
REFERENCE_S = 0.3  # each pace sample runs the reference kernel this long


class Ledger:
    """Attempted and failed operations: program calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return bool(ok)

    def call(self, what: str, fn, *args, **kwargs):
        """One call into the program; an exception or an exit is a failed operation, not a crash."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (Exception, SystemExit) as exc:  # the loop must keep running and count it
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


class Clock:
    """Time box of one run: another unit starts only if it should end in time.

    Before the first unit and after each one, the clock also times a few
    passes of a fixed numpy kernel shaped like an LSTM layer.  The kernel is
    not program code, so its pace tracks only the machine's speed, which
    drifts on a shared box.  The workloads also pace after each timed call,
    so that the samples cover the whole run.
    """

    def __init__(self, seconds: float):
        rng = np.random.default_rng(0)
        self._w = (0.1 * rng.standard_normal((119, 400))).astype(np.float32)
        self._x = rng.standard_normal((128, gen.K, 19)).astype(np.float32)
        self.reference: list[float] = []
        self.pace()
        self.seconds = seconds
        self.start = time.perf_counter()

    def pace(self):
        t_end = time.perf_counter() + REFERENCE_S
        while True:
            t0 = time.perf_counter()
            h = np.zeros((self._x.shape[0], 100), np.float32)
            for step in range(self._x.shape[1]):
                z = np.concatenate([self._x[:, step], h], axis=1) @ self._w
                gates = 0.5 * np.tanh(0.5 * z[:, :300]) + 0.5
                h = gates[:, :100] * np.tanh(z[:, 300:])
            self.reference.append(time.perf_counter() - t0)
            if t0 > t_end:
                break

    def another(self, unit_s: float) -> bool:
        self.pace()
        return time.perf_counter() - self.start + unit_s <= self.seconds

    def reference_ms(self) -> float:
        return 1e3 * statistics.fmean(self.reference)


@dataclass
class Data:
    log_events: int
    spec: EncodingSpec
    train: Dataset
    val: Dataset
    test: Dataset


def prepare(n_cases: int, seed: int, csv_path: Path) -> Data:
    """Generate, write and read back a log, then encode it as ``prepare`` does."""
    gen.write_csv(gen.generate_cases(n_cases, seed), csv_path)
    log = eventlog.parse_csv(csv_path, ColumnMap(*gen.COLUMNS))
    split = eventlog.split_chronological(log)
    prefixes = eventlog.generate_prefixes
    train_prefixes = prefixes(split.train, log.vocabulary, log.k, "train")
    mean_first, mean_prev = encoding.fit_normalizers(train_prefixes)
    spec = EncodingSpec(tuple(log.vocabulary), log.k, mean_first, mean_prev)
    if spec.n_features != gen.K * (len(gen.ACTIVITIES) + 5):
        raise ValueError(f"log encodes to {spec.n_features} features per instance")
    return Data(
        log_events=log.event_count,
        spec=spec,
        train=encoding.encode_dataset(train_prefixes, spec),
        val=encoding.encode_dataset(prefixes(split.validation, log.vocabulary, log.k, "train"), spec),
        test=encoding.encode_dataset(prefixes(split.test, log.vocabulary, log.k, "eval"), spec),
    )


def timed_best(fn):
    """(last result, fastest wall seconds) of SETUP_REPEATS calls or more, over SETUP_MIN_S.

    The fastest call, not the median: on a shared box a set-up of pure Python
    runs at one of two paces, about 1.8x apart, for seconds at a time, so a
    median reads whichever pace held (README.md, "Noise").
    """
    walls = []
    while len(walls) < SETUP_REPEATS or sum(walls) < SETUP_MIN_S:
        t0 = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - t0)
    return result, min(walls)


def subset(ds: Dataset, idx) -> Dataset:
    idx = np.asarray(idx)
    return Dataset(ds.x[idx], ds.y_activity[idx], ds.y_time[idx],
                   tuple(ds.ids[i] for i in idx), tuple(ds.prefix_lengths[i] for i in idx))


def sample(ds: Dataset, n: int, rng: np.random.Generator) -> Dataset:
    return subset(ds, np.sort(rng.permutation(len(ds))[:n]))


# A figure whose calls all failed reads 0 instead of crashing the run: the
# failures are already counted, so the result reports correct = false.

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values)))) if min(values) > 0 else 0.0


def forced_indices(spec: EncodingSpec) -> set[int]:
    """Flat indices of the event-index column, from the documented layout."""
    return {row * spec.width + spec.vocab_size for row in range(spec.k)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_history(ledger: Ledger, what: str, ckpt) -> bool:
    losses = [v for h in ckpt.history for v in (h.train["total"], h.val["total"])]
    return ledger.check(f"{what}: every loss is finite", ckpt.params is not None
                        and all(np.isfinite(losses)), f"losses {losses}")


def check_round_trip(ledger: Ledger, what: str, ckpt, path: Path):
    training.save_checkpoint(ckpt, path)
    back = training.load_checkpoint(path)
    before = dict(ckpt.params.named_parameters())
    after = dict(back.params.named_parameters())
    same = before.keys() == after.keys() and all(
        np.array_equal(before[k].value, after[k].value) for k in before)
    buffers = dict(back.params.named_buffers())
    same = same and all(np.array_equal(v, buffers[k]) for k, v in ckpt.params.named_buffers())
    ledger.check(f"{what}: checkpoint survives save/load with equal tensors", same)


def check_selfexplain(ledger: Ledger, spec: EncodingSpec, records):
    forced = forced_indices(spec)
    bad = [r.instance_id for r in records if not forced <= set(r.indices)]
    ledger.check("every self-explain subset holds the forced index features", not bad, f"{bad[:3]}")


def check_posthoc(ledger: Ledger, found_precisions):
    low = [p for p in found_precisions if p is None or p < DELTA]
    ledger.check(f"every post-hoc 'found' has precision >= {DELTA}", not low, f"{low[:3]}")


def determinism_probe(ledger: Ledger, workdir: Path) -> str:
    """Train the same small model twice from one seed; the bytes must match.

    The probe's log and seed never change, so its SHA-256 must also repeat
    across every run of a set (``compare.py`` checks that).
    """
    data = prepare(gen.SMALL_CASES, PROBE_SEED, workdir / "probe.csv")
    config = TrainConfig(mode="selfexplain", xi=1e-9, max_epochs=1, patience=1, seed=7)
    digests = []
    for i in range(2):
        path = workdir / f"probe{i}.ckpt"
        training.save_checkpoint(training.fit(data.train, data.val, data.spec, config), path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    ledger.check("same seed gives the same checkpoint SHA-256", digests[0] == digests[1], str(digests))
    return digests[0]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_train(seed: int, seconds: float, workdir: Path, ledger: Ledger) -> dict:
    data, setup_s = timed_best(
        lambda: prepare(gen.FULL_CASES, seed, workdir / "log.csv"))
    rng = np.random.default_rng([seed, 1])
    train, val = sample(data.train, TRAIN_ROWS, rng), sample(data.val, TRAIN_VAL_ROWS, rng)
    common = dict(batch_size=64, max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS, seed=7)
    configs = {
        "baseline": TrainConfig(mode="baseline", learning_rate=0.002, **common),
        "selfexplain": TrainConfig(mode="selfexplain", learning_rate=0.002, lam=1.0, xi=1e-9, **common),
    }
    rates: dict[str, list[float]] = {mode: [] for mode in configs}
    last = {}
    clock = Clock(seconds)
    while True:
        t_unit = time.perf_counter()
        for mode, config in configs.items():
            t0 = time.perf_counter()
            ckpt = ledger.call(f"fit {mode}", training.fit, train, val, data.spec, config)
            wall = time.perf_counter() - t0
            if ckpt is not None and check_history(ledger, f"fit {mode}", ckpt):
                rates[mode].append(TRAIN_EPOCHS * len(train) / wall)
                last[mode] = ckpt
            clock.pace()
        if not clock.another(time.perf_counter() - t_unit):
            break
    measured_s = time.perf_counter() - clock.start
    for mode, ckpt in last.items():
        check_round_trip(ledger, f"fit {mode}", ckpt, workdir / f"{mode}.ckpt")
    detail = {f"train_{mode}_rows_per_s": median(r) for mode, r in rates.items()}
    detail["fits"] = sum(len(r) for r in rates.values())
    return dict(setup_s=setup_s, measured_s=measured_s, detail=detail, reference_ms=clock.reference_ms(),
                throughput=geomean([detail["train_baseline_rows_per_s"],
                                    detail["train_selfexplain_rows_per_s"]]))


def _train_checkpoint(data: Data, mode: str, recipe: dict, seed: int):
    rng = np.random.default_rng([seed, 2])
    config = TrainConfig(mode=mode, learning_rate=recipe["learning_rate"],
                         xi=0.0 if mode == "baseline" else 1e-9,
                         max_epochs=recipe["epochs"], patience=recipe["epochs"], seed=7)
    return training.fit(sample(data.train, recipe["rows"], rng),
                        sample(data.val, CKPT_VAL_ROWS, rng), data.spec, config)


def inference_setup(seed: int, workdir: Path, ledger: Ledger):
    """Set-up of ``explain`` and ``posthoc``: the log, both checkpoints and the sampler.

    Returns (data, baseline checkpoint, self-explain checkpoint, sampler, setup seconds).
    """
    data, data_s = timed_best(
        lambda: prepare(gen.FULL_CASES, seed, workdir / "log.csv"))
    t0 = time.perf_counter()
    base = _train_checkpoint(data, "baseline", CKPT_BASELINE, seed)
    senn = _train_checkpoint(data, "selfexplain", CKPT_SELFEXPLAIN, seed)
    sampler = FeatureSampler.fit(data.spec, data.train.x)
    setup_s = data_s + time.perf_counter() - t0
    for what, ckpt in (("baseline checkpoint", base), ("self-explain checkpoint", senn)):
        check_history(ledger, what, ckpt)
        check_round_trip(ledger, what, ckpt, workdir / f"{ckpt.config.mode}.ckpt")
    return data, base, senn, sampler, setup_s


def run_explain(seed: int, seconds: float, workdir: Path, ledger: Ledger) -> dict:
    data, base, senn, _, setup_s = inference_setup(seed, workdir, ledger)
    test = data.test
    majority = np.bincount(test.y_activity).max() / len(test)
    predict_rates, latencies, sizes = [], [], []
    acc = None
    next_se = 0
    clock = Clock(seconds)
    while True:
        t_unit = time.perf_counter()
        t0 = time.perf_counter()
        acc = ledger.call("accuracy", evaluation.accuracy, base.params, test)
        if acc is not None:
            predict_rates.append(len(test) / (time.perf_counter() - t0))
            ledger.check("accuracy beats the majority class", acc > majority,
                         f"{acc:.3f} <= {majority:.3f}")
        clock.pace()

        records = []
        for _ in range(SELFEXPLAIN_PER_ROUND):
            one = subset(test, [next_se % len(test)])
            next_se += 1
            t0 = time.perf_counter()
            out = ledger.call("explain_selfexplain", evaluation.explain_selfexplain,
                              senn.params, one, data.spec, tau=senn.config.tau)
            if out is not None:
                latencies.append(time.perf_counter() - t0)
                records.extend(out)
        check_selfexplain(ledger, data.spec, records)
        sizes.extend(r.size for r in records)
        if not clock.another(time.perf_counter() - t_unit):
            break
    measured_s = time.perf_counter() - clock.start

    lat_ms = 1e3 * np.asarray(latencies) if latencies else np.zeros(1)
    detail = {
        "predict_rows_per_s": median(predict_rates),
        "selfexplain_ms.p50": float(np.percentile(lat_ms, 50)),
        "selfexplain_ms.p95": float(np.percentile(lat_ms, 95)),
        "selfexplain_samples": len(latencies),
        "selfexplain_mean_size": float(np.mean(sizes)) if sizes else 0.0,
        "accuracy": acc,
        "majority_rate": float(majority),
    }
    # the batch-1 latency is not in the gate: it runs at either of the box's
    # two paces for a whole run (README.md, "End-to-end metrics")
    return dict(setup_s=setup_s, measured_s=measured_s, detail=detail, reference_ms=clock.reference_ms(),
                throughput=detail["predict_rows_per_s"])


def found_path_probe(ledger: Ledger, ckpt, test: Dataset, order, sampler, seed: int):
    """One search that ends at round 0, so that the found and confirm paths run.

    At delta 0.95 the searches on the briefly trained set-up checkpoints rarely
    end: the best greedy extension keeps estimating just below delta.  The
    empty anchor's precision is the share of complement draws predicted as the
    instance's class.  So the probe takes the first prefix in ``order`` of the
    class that the draws favour, and sets its threshold PROBE_MARGIN below that
    class's share: both estimates of the empty anchor then clear it.
    Returns the search's status, rounds, threshold and precision.
    """
    predict = model.make_predictor(ckpt.params)
    rng = np.random.default_rng([seed, 2])
    counts = np.bincount(predict(sampler.draw(rng, 10 * SAMPLES)))
    longest = np.asarray(order[:512])
    candidates = longest[predict(test.x[longest].reshape(len(longest), -1)) == counts.argmax()]
    threshold = round(counts.max() / counts.sum() - PROBE_MARGIN, 2)
    if not len(candidates) or threshold <= 0:
        return None
    config = AnchorConfig(precision_threshold=threshold, n_samples=SAMPLES,
                          timeout_s=POSTHOC_TIMEOUT_S, seed=seed)
    i = candidates[0]
    result = ledger.call("found-path probe", posthoc.greedy_anchor_search, predict,
                         test.x[i].reshape(-1), config, sampler, evaluation.instance_rng(seed, test.ids[i]))
    if result is None:
        return None
    if result.status == "found":
        ledger.check(f"the found-path probe's precision is >= {threshold}",
                     result.precision >= threshold, f"{result.precision}")
    return dict(status=result.status, rounds=result.rounds, threshold=threshold, precision=result.precision)


def run_posthoc(seed: int, seconds: float, workdir: Path, ledger: Ledger) -> dict:
    data, base, senn, sampler, setup_s = inference_setup(seed, workdir, ledger)
    test = data.test
    t0 = time.perf_counter()
    records = evaluation.explain_selfexplain(senn.params, test, data.spec, tau=senn.config.tau,
                                             limit=VERIFY_PER_ROUND)
    setup_s += time.perf_counter() - t0
    check_selfexplain(ledger, data.spec, records)
    anchor = AnchorConfig(precision_threshold=DELTA, n_samples=SAMPLES,
                          timeout_s=POSTHOC_TIMEOUT_S, seed=seed)

    # longest prefixes first: short ones are mostly padding, and their searches
    # never end within the timeout
    order = sorted(range(len(test)), key=lambda i: (-test.prefix_lengths[i], i))
    t0 = time.perf_counter()
    probe = found_path_probe(ledger, base, test, order, sampler, seed)
    setup_s += time.perf_counter() - t0
    verify_counts, verify_walls = 0, 0.0
    search = dict(samples=0, rounds=0, wall=0.0, searches=0, timeouts=0, found=0, found_at_round0=0)
    found_precisions = []
    next_ph = 0
    clock = Clock(seconds)
    while True:
        t_unit = time.perf_counter()
        t0 = time.perf_counter()
        verified = ledger.call("verify_explanations", evaluation.verify_explanations, senn.params, test,
                               records, sampler, delta=DELTA, n_samples=SAMPLES, seed=seed, threads=1)
        if verified is not None:
            verify_walls += time.perf_counter() - t0
            verify_counts += len(verified)
            ledger.check("verify keeps every record and fills its flag",
                         len(verified) == len(records) and all(v.sufficient is not None for v in verified))
        clock.pace()

        t_search = time.perf_counter()
        while time.perf_counter() - t_search < SEARCH_S_PER_ROUND:
            predict = model.make_predictor(base.params)  # as explain_posthoc does, once per call
            i = order[next_ph % len(test)]
            next_ph += 1
            rng = evaluation.instance_rng(anchor.seed, test.ids[i])
            t0 = time.perf_counter()
            result = ledger.call("greedy_anchor_search", posthoc.greedy_anchor_search,
                                 predict, test.x[i].reshape(-1), anchor, sampler, rng)
            wall = time.perf_counter() - t0
            if result is None:
                continue
            search["searches"] += 1
            search["timeouts"] += result.status == "timeout"
            if result.status == "found":
                search["found"] += 1
                found_precisions.append(result.precision)
            if result.rounds == 0:
                # the empty anchor held: 200 rows in a few ms, another regime
                # than greedy rounds, so it stays out of the rates
                search["found_at_round0"] += 1
                continue
            search["samples"] += result.samples_used
            search["rounds"] += result.rounds
            search["wall"] += wall
            clock.pace()
        if not clock.another(time.perf_counter() - t_unit):
            break
    measured_s = time.perf_counter() - clock.start
    check_posthoc(ledger, found_precisions)

    posthoc_rows_per_s = rate(search["samples"], search["wall"])
    detail = {
        "posthoc_rows_per_s": posthoc_rows_per_s,
        "posthoc_s_per_round": rate(search["wall"], search["rounds"]),
        "posthoc_s_per_full_round": rate(data.spec.n_features * SAMPLES, posthoc_rows_per_s),
        "posthoc_searches": search["searches"],
        "posthoc_rounds": search["rounds"],
        "posthoc_timeouts": search["timeouts"],
        "posthoc_found": search["found"],
        "posthoc_found_at_round0": search["found_at_round0"],
        "probe": probe,
        "verify_instances_per_s": rate(verify_counts, verify_walls),
    }
    return dict(setup_s=setup_s, measured_s=measured_s, detail=detail, reference_ms=clock.reference_ms(),
                throughput=detail["posthoc_rows_per_s"])


def protocol_stages(csv_path: Path, out: Path, seed: int, threads: int) -> list[tuple[str, list[str]]]:
    """The README's protocol order with tiny budgets; (stage name, argv) pairs."""
    common = ["--out", str(out), "--seed", str(seed)]
    budget = ["--epochs", str(PROTOCOL_EPOCHS), "--patience", str(PROTOCOL_EPOCHS)]
    verify = ["--delta", str(DELTA), "--samples", str(SAMPLES), "--threads", str(threads)]
    return [
        ("prepare", ["prepare", *common, "--data", str(csv_path), "--case-col", gen.COLUMNS[0],
                     "--activity-col", gen.COLUMNS[1], "--timestamp-col", gen.COLUMNS[2]]),
        ("train", ["train", *common, "--mode", "baseline", *budget]),
        *[(f"gridsearch.{grid}", ["gridsearch", *common, "--grid", grid, *budget,
                                  "--eval-limit", str(PROTOCOL_EVAL_LIMIT), "--samples", str(SAMPLES)])
          for grid in ("full", "small")],
        ("explain.selfexplain", ["explain", *common, "--method", "selfexplain",
                                 "--limit", str(PROTOCOL_EXPLAIN_LIMIT)]),
        ("explain.posthoc", ["explain", *common, "--method", "posthoc",
                             "--limit", str(PROTOCOL_POSTHOC_LIMIT), "--timeout", str(PROTOCOL_TIMEOUT_S),
                             "--samples", str(SAMPLES), "--delta", str(DELTA), "--threads", str(threads)]),
        ("verify.selfexplain", ["verify", *common, "--method", "selfexplain", *verify]),
        ("verify.posthoc", ["verify", *common, "--method", "posthoc", *verify]),
        ("report", ["report", *common]),
    ]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_protocol_outputs(ledger: Ledger, out: Path, test_instances: int, spec: EncodingSpec):
    for grid, cells in (("full", 30), ("small", 10)):
        path = out / "models" / f"grid_{grid}" / "result.jsonl"
        records = _jsonl(path) if path.exists() else []
        ledger.check(f"grid {grid}: {cells} cells, none failed",
                     len(records) == cells and all(r["status"] == "ok" for r in records),
                     f"{[r.get('error') for r in records if r['status'] != 'ok'][:2]}")
    expected = {"selfexplain": min(PROTOCOL_EXPLAIN_LIMIT, test_instances),
                "posthoc": min(PROTOCOL_POSTHOC_LIMIT, test_instances)}
    report = out / "report" / "report.jsonl"
    counts = {r["method"]: r["instances"] for r in _jsonl(report)} if report.exists() else {}
    ledger.check("report.jsonl holds both methods with the expected counts",
                 counts == expected, f"{counts} != {expected}")
    explained = out / "explanations"
    if (explained / "selfexplain.jsonl").exists():
        forced = forced_indices(spec)
        bad = [r["instance"] for r in _jsonl(explained / "selfexplain.jsonl")
               if not forced <= set(r["indices"])]
        ledger.check("every self-explain subset holds the forced index features", not bad, f"{bad[:3]}")
    if (explained / "posthoc.jsonl").exists():
        check_posthoc(ledger, [r["precision"] for r in _jsonl(explained / "posthoc.jsonl")
                               if r["status"] == "found"])


def run_protocol(seed: int, seconds: float, workdir: Path, ledger: Ledger, threads: int) -> dict:
    csv_path = workdir / "log.csv"
    data, setup_s = timed_best(lambda: prepare(gen.SMALL_CASES, seed, csv_path))

    walls: list[float] = []
    stage_walls: dict[str, list[float]] = {}
    clock = Clock(seconds)
    while True:
        out = workdir / f"runs{len(walls)}"
        t_unit = time.perf_counter()
        wall = 0.0  # the stages only, without the pace samples between them
        for stage, argv in protocol_stages(csv_path, out, seed, threads):
            t0 = time.perf_counter()
            with (out.parent / f"{out.name}.log").open("a", encoding="utf-8") as log, \
                    contextlib.redirect_stdout(log):
                code = ledger.call(f"sennap {stage}", cli.main, argv)
            stage_walls.setdefault(stage, []).append(time.perf_counter() - t0)
            wall += stage_walls[stage][-1]
            ledger.check(f"sennap {stage} exits 0", code == 0, f"exit {code}")
            clock.pace()
        walls.append(wall)
        check_protocol_outputs(ledger, out, len(data.test), data.spec)
        if not clock.another(time.perf_counter() - t_unit):
            break
    measured_s = time.perf_counter() - clock.start
    detail = {"protocol_s": statistics.median(walls), "protocols": len(walls),
              "log_events": data.log_events, "threads": threads}
    detail.update({f"protocol.{stage}_s": statistics.median(w) for stage, w in stage_walls.items()})
    return dict(setup_s=setup_s, measured_s=measured_s, detail=detail, reference_ms=clock.reference_ms(),
                throughput=data.log_events / detail["protocol_s"])


WORKLOADS = {"train": run_train, "explain": run_explain, "posthoc": run_posthoc, "protocol": run_protocol}
