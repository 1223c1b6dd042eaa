"""Run a set of benchmark runs, one process after another, and summarise it.

    python3 perfbench/sweep.py --workloads train explain posthoc protocol --seeds 1-10 --out set.jsonl
    python3 perfbench/sweep.py --workloads explain --seeds 1-5 --trace 1 --out set.jsonl

Each run is ``run.py`` in its own process from the checkout root, with the
run length of BENCHMARK.json.  Records are appended to ``--out``; the
summary of ``compare.py`` follows.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, nargs="+", default=[0], choices=(0, 1))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in args.seeds:
        for workload in args.workloads:
            for trace in args.trace:
                t0 = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace), "--results", str(args.out)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                last = (done.stdout.strip().splitlines() or [""])[-1]
                print(f"{workload} seed {seed} trace {trace}: exit {done.returncode} "
                      f"in {time.perf_counter() - t0:.1f} s  {last[:160]}", flush=True)
                if done.returncode:
                    print(done.stderr[-2000:], file=sys.stderr)
    print(compare.summarize(compare.load(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
