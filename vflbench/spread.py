#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 vflbench/spread.py [--workloads grna_grid,...] [--runs 10]
        [--first-seed 1] [--trace 0]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stdout}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value, in seed order")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, series in sorted(values.items()):
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            share = f"{spread / bound:5.2f} of bound" if bound else ""
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:24s} median {median:14.4f}  spread {spread:7.3f}"
                  f"  bound {bound}  {share}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in series))
    print(f"largest spread as a share of its bound (setup_s excluded): "
          f"{worst:.2f}")


if __name__ == "__main__":
    main()
