"""Summarise one set of benchmark results, or compare a parent set with a change.

    python3 perfbench/compare.py SET.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A set is the ``--results`` file of ``run.py`` (one JSON record per run).  The
summary prints, per workload and metric, the median, the quartiles and the
spread (quartile distance over median) against the metric's bound, then the
set's checks: failures, whether the determinism probe's SHA-256 repeated, and
the tracing overhead (traced minus untraced runs of the same seed).

The comparison prints one row per workload and metric: both medians and
quartiles, the share of same-seed pairs the change won, and a verdict:
``improved`` (wins >= 9/10 of pairs and the medians differ by more than the
parent's quartile distance), ``worse`` (median worse by more than the bound),
``unresolved`` (the parent's spread exceeds the bound) or ``no worse``.
Gated metrics are the end-to-end ones of BENCHMARK.json; the per-workload
figures under ``detail`` are compared with DETAIL_BOUND and marked ``(detail)``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAIL_BOUND = 0.10


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def gated() -> dict[str, dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in declared["end_to_end"]}


def detail_better(name: str) -> str | None:
    """Direction of a detail figure; None for counts and quality figures."""
    if name.endswith("_per_s") or name.startswith("throughput"):
        return "higher"
    if name.endswith(("_s", "_ms", ".p50", ".p95", "_round")):
        return "lower"
    return None


def series(records: list[dict]) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over the untraced runs."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for r in records:
        if r["trace"]:
            continue
        values = {**r["end_to_end"], **{k: v for k, v in r["detail"].items() if detail_better(k)}}
        for name, value in values.items():
            out.setdefault((r["workload"], name), {})[r["seed"]] = value
    return out


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rule(name: str, metrics: dict) -> tuple[str, float, bool]:
    """(better, bound, gated) of a metric name."""
    if name in metrics:
        return metrics[name]["better"], metrics[name]["bound"], True
    return detail_better(name), DETAIL_BOUND, False


def summarize(records: list[dict]) -> str:
    metrics = gated()
    lines = [f"{'workload':<9} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
             f" {'spread':>8} {'bound':>6}  status"]
    for (workload, name), by_seed in sorted(series(records).items(),
                                            key=lambda item: (item[0][0], item[0][1] not in metrics, item[0][1])):
        _, bound, is_gated = rule(name, metrics)
        q1, med, q3 = quartiles(by_seed.values())
        spread = (q3 - q1) / med if med else float("inf")
        status = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "UNSTEADY"
        if name == "setup_s":
            status += " (spread not gated)"
        label = name if is_gated else f"{name} (detail)"
        lines.append(f"{workload:<9} {label:<34} {len(by_seed):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g}"
                     f" {100 * spread:>7.2f}% {100 * bound:>5.0f}%  {status}")
    failed = [(r["workload"], r["seed"], r["failures"]) for r in records if r["failed"]]
    shas = {r["probe_sha256"] for r in records}
    lines += ["", f"runs: {len(records)}, attempted operations: {sum(r['attempted'] for r in records)}, "
                  f"failed: {sum(r['failed'] for r in records)}"]
    lines += [f"  failed in {w} seed {s}: {f}" for w, s, f in failed]
    lines.append(f"determinism probe SHA-256: {'repeats' if len(shas) == 1 else 'DIFFERS'} "
                 f"across the set ({', '.join(sorted(shas))})")
    lines += overhead(records)
    return "\n".join(lines)


def overhead(records: list[dict]) -> list[str]:
    """Traced minus untraced end-to-end figures, over runs with the same seed."""
    plain = {(r["workload"], r["seed"]): r for r in records if not r["trace"]}
    traced = [r for r in records if r["trace"] and (r["workload"], r["seed"]) in plain]
    if not traced:
        return []
    lines = ["", "tracing overhead (traced minus untraced, share of untraced, median over seeds):"]
    by_metric: dict[tuple[str, str], list[float]] = {}
    for r in traced:
        base = plain[(r["workload"], r["seed"])]
        values = {**r["end_to_end"], **r["detail"]}
        for name, untraced in {**base["end_to_end"], **base["detail"]}.items():
            if detail_better(name):
                if isinstance(values.get(name), (int, float)) and untraced:
                    by_metric.setdefault((r["workload"], name), []).append((values[name] - untraced) / untraced)
        lines.append(f"  {r['workload']} seed {r['seed']}: span cost {r['span_cost_us']:.2f} us, "
                     f"{r['per_layer'].get('trace.spans', 0):.0f} spans")
    for (workload, name), shares in sorted(by_metric.items()):
        lines.append(f"  {workload:<9} {name:<34} {100 * statistics.median(shares):+7.2f}%  (n={len(shares)})")
    return lines


def compare(parent: list[dict], change: list[dict]) -> str:
    metrics = gated()
    before, after = series(parent), series(change)
    lines = [f"{'workload':<9} {'metric':<34} {'parent median [q1, q3]':>36} "
             f"{'change median [q1, q3]':>36} {'wins':>5}  verdict"]
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        better, bound, is_gated = rule(name, metrics)
        p_q1, p_med, p_q3 = quartiles(before[key].values())
        c_q1, c_med, c_q3 = quartiles(after[key].values())
        sign = 1.0 if better == "higher" else -1.0
        pairs = [(before[key][s], after[key][s]) for s in before[key].keys() & after[key].keys()]
        wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs) if pairs else 0.0
        gain = sign * (c_med - p_med)
        all_better = all(sign * (c - p) > 0 for c in after[key].values() for p in before[key].values())
        if (p_q3 - p_q1) / p_med > bound and not all_better:
            verdict = "unresolved"
        elif wins >= 0.9 and gain > p_q3 - p_q1:
            verdict = "improved"
        elif -gain > bound * p_med:
            verdict = "worse"
        else:
            verdict = "no worse within bound"
        label = name if is_gated else f"{name} (detail)"
        lines.append(f"{workload:<9} {label:<34} {p_med:>12.5g} [{p_q1:>9.5g}, {p_q3:>9.5g}] "
                     f"{c_med:>12.5g} [{c_q1:>9.5g}, {c_q3:>9.5g}] {wins:>5.2f}  {verdict}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        print(summarize(load(argv[0])))
    elif len(argv) == 2:
        print(compare(load(argv[0]), load(argv[1])))
    else:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
