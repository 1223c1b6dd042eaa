"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` there,
and nothing else of the checkout is used apart from ``BENCHMARK.json``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around the program's public
functions and reports the per-module metrics instead.  The full record
(environment, every figure, failures) is printed on the line before the
result and appended to ``--results`` (default ``.perfbench/results.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_revision(root: Path) -> str | None:
    """HEAD's commit, read from .git without starting git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "loadavg_before": os.getloadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "explain", "posthoc", "protocol"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench" / "results.jsonl")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sennap" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'sennap'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracing
    import workloads

    env = environment()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    state = ROOT / ".perfbench"
    workdir = state / "work" / run_id
    workdir.mkdir(parents=True)
    ledger = workloads.Ledger()
    tracer = tracing.Tracer(run_id) if args.trace else None
    kwargs = {}
    if args.workload == "protocol":
        kwargs["threads"] = len(os.sched_getaffinity(0))
    try:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir, ledger, **kwargs)
        traced_wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        probe_sha = workloads.determinism_probe(ledger, workdir)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "setup_s": (out["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        # work per pass of the machine-pace kernel: the drift of a shared box cancels
        "throughput_per_ref": (out["throughput"] * out["reference_ms"] / 1e3, "per_refpass"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_id": run_id,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_ratio": ledger.failed / max(ledger.attempted, 1), "failures": ledger.failures,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "detail": {**out["detail"], "throughput": out["throughput"], "reference_ms": out["reference_ms"]},
        "measured_s": out["measured_s"],
        "probe_sha256": probe_sha, "env": env,
    }
    metrics = end_to_end
    if tracer:
        cost = tracing.span_cost_s()
        metrics = tracing.layer_metrics(tracer, kwargs.get("threads", 1), traced_wall, cost)
        record.update(per_layer={k: v for k, (v, _) in metrics.items()},
                      missing_functions=tracer.missing, span_cost_us=1e6 * cost)
        tracer.write(state / "spans" / f"{run_id}.jsonl")
    record["env"]["loadavg_after"] = os.getloadavg()

    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    stray = {k for k, (_, unit) in metrics.items() if wanted.get(k) != unit}
    if stray:
        print(f"error: metrics not declared in BENCHMARK.json: {sorted(stray)}", file=sys.stderr)
        return 3
    for name in sorted(wanted.keys() - metrics.keys()):
        print(f"warning: {name} is missing (its wrapped function is gone)", file=sys.stderr)

    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    for failure in ledger.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
