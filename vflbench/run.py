#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 vflbench/run.py --workload grna_grid|adversary_stream|net_open \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The build goes to $CARGO_TARGET_DIR/vflbench
(default .bench_build/vflbench, relative to the root); build output goes to
stderr, so the last line of stdout is the driver's JSON result. Exits
non-zero without a result when the build fails (for example when the library
sources next to this directory are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vflbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("vflbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "vflbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
