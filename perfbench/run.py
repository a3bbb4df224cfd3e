#!/usr/bin/env python3
"""Builds and runs the real-CPU benchmark of the MultiCast library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (a CMake package that
compiles the library sources in src/) into .bench_build/perfbench, later
runs rebuild incrementally. Every run then executes the harness
self-tests and the benchmark binary, whose stdout is passed through: the
last line is the result object. Build output goes to stderr. The exit
code is the benchmark's (nonzero on a failed build, self-test or output
check).

The benchmark binary measures for at least --seconds and stops at the
first pass boundary after that, once it holds its minimum numbers of
passes and latency windows; the whole run is given 2 * --seconds plus a
fixed allowance for set-up and those minimums before it is killed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Set-up (three builds of the workload), the minimum passes and, on
# traced runs, the untraced baseline passes and the stage replay.
RUN_ALLOWANCE_S = 120


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def source_id():
    """`git describe --always --dirty` of the checkout, so that uncommitted
    changes show; "unknown" outside a git repository."""
    try:
        result = subprocess.run(["git", "describe", "--always", "--dirty"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=False, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    timeout_s = 2 * args.seconds + RUN_ALLOWANCE_S

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              check=False, timeout=RUN_ALLOWANCE_S)
    if selftest.returncode != 0:
        return selftest.returncode

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--out", OUT_DIR]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, check=False,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout_s, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
