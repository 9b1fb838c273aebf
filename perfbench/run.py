#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

    python3 perfbench/run.py --workload cnn_f32_b1 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds into .bench_build/perfbench (CMake,
Release, reusing the tree on later runs), then runs the measurement, which also checks
every output against a reference computed after the timed part. The last line of
stdout is the JSON result; build output and diagnostics go to stderr. It exits non-zero
without a result when the build fails, the run is invalid or too slow, and exits
non-zero after the result when an output disagrees with its reference.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
# A run must finish well inside the 180 s it may take.
RUN_BUDGET_S = 170
WORKLOADS = ("cnn_f32_b1", "cnn_u8_b1", "serve_wire")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    try:
        return subprocess.run(command, timeout=RUN_BUDGET_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_BUDGET_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
