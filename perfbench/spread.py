#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0] WORKLOAD...

Runs the benchmark once per seed on each workload and prints, for every
metric, the median of the runs and the distance between the first and
third quartile as a share of the median (Python's statistics.quantiles,
n=4) next to the metric's bound in BENCHMARK.json. A spread above a
third of its bound is flagged, since two sets of runs must agree within
the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads:
        runs = [run(bench, w, args.first_seed + i, args.trace) for i in range(args.runs)]
        print(f"{w}: {args.runs} runs")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            share = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:40s} median {med:14.6g}  spread {share:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
