#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs each workload --runs times, each with another seed, through run.sh's
one-workload form, and prints per (workload, metric): the median, the
quartiles, the spread (q3 - q1) / median and the metric's bound from
BENCHMARK.json. A spread at or above a third of its bound is flagged,
except for setup_s, whose spread is not held to its bound.

Usage: python3 bench/e2e/spread.py [--runs 10] [--seconds 20]
                                   [--first-seed 1] [--raw] [workload ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--raw", action="store_true",
                        help="also print each run's value, in seed order")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                ["bash", "bench/e2e/run.sh", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect or failed ops")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            flag = spread >= bound / 3 and name != "setup_s"
            flagged += flag
            print(f"{workload:7s} {name:22s} median {median:14.6g} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.4f} "
                  f"bound {bound:5.3f}{'  <-- wide' if flag else ''}",
                  flush=True)
            if args.raw:
                print("   ", " ".join(f"{v:.6g}" for v in vals), flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
