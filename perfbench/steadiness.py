#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--workloads small_rpc,link_churn]
                                    [--runs 10] [--first-seed 1]
                                    [--seconds N] [--trace 0|1]

Runs perfbench/run.py --runs times per workload, each with its own seed,
and prints for every metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  A metric is "steady"
when its spread is under a third of its bound.  setup_s has no spread
criterion (only its median is compared between two sets of runs), so its
spread is shown for information.  Exits 1 when any run fails or any
bounded metric other than setup_s spreads wider than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, wall
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:])
        return None, wall
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    failed = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i,
                                    args.seconds, args.trace)
            walls.append(wall)
            if result is None:
                print("%s seed %d: run failed" % (workload,
                                                  args.first_seed + i))
                failed = True
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s: %d runs, seeds %d..%d, %.1f-%.1f s per run" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1, min(walls), max(walls)))
        print("%-44s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, bound in bounds.items():
            series = values[name]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "median-only"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                failed = True
            print("%-44s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                name, median, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, verdict))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
