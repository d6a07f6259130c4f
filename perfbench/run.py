#!/usr/bin/env python3
"""Builds and runs the monitor-pipeline benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload backbone-tenants --seed 1 \
        --seconds 10 --trace 0

It configures the repository's CMake project in Release mode with the
benchmark's executable added (perfbench/perfbench.cmake), builds it under
$CARGO_TARGET_DIR (default .bench_build), generates the workload's capture
for the seed into the cache there when it is missing, and runs the
benchmark.  Build output and tables go to stderr; the last line of stdout
is the JSON result.  A failed build or run exits non-zero without a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["backbone-tenants", "attack-mix", "backbone-sharded"]


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake")],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "perfbench", "build"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--cache", os.path.join(out_dir, "perfbench", "cache")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
