#!/usr/bin/env python3
"""The benchmark's own test: smoke runs on tiny inputs.

    python3 vflbench/test_smoke.py

For every workload, in the untraced and the traced mode, it runs
`run.py --smoke` and checks that the command exits 0, that the last line of
stdout is the result object with `correct` true, that every end-to-end
(untraced) or per-layer (traced) metric named in BENCHMARK.json is emitted
exactly once with its unit and a finite value, and that every correctness
check passed. It then checks that a tree holding only BENCHMARK.json and the
benchmark directory fails without printing a result. Run from the repository
root; exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace",
               str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        fail(f"{label}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if sorted(got) != sorted(want):
        fail(f"{label}: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if metric["unit"] != want[name]:
            fail(f"{label}: {name} unit {metric['unit']} != {want[name]}")
        if not math.isfinite(metric["value"]):
            fail(f"{label}: {name} value {metric['value']}")
    checks = [line for line in lines if " check " in line]
    if not checks or any(": FAIL" in line for line in checks):
        fail(f"{label}: checks\n" + "\n".join(checks))
    print(f"ok {label}: {len(got)} metrics, {len(checks)} checks passed")


def check_sources_missing(spec):
    # A tree with only BENCHMARK.json and the benchmark's own directories
    # cannot build the program: the command must fail without a result.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tree = os.path.join(base, "isolated-tree")
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(tree, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run(spec["command"] + ["--workload", "grna_grid",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    shutil.rmtree(tree, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"isolated tree: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok isolated tree: exit {done.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_sources_missing(spec)
    print("all smoke checks passed")


if __name__ == "__main__":
    main()
