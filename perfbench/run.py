#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload job-reopt --seed 1 --seconds 20 --trace 0

All arguments go to the driver unchanged (see README.md). The build goes to
$CARGO_TARGET_DIR, or to .bench_build when that is unset, relative to the
current directory; its output goes to stderr, so the last line of stdout is
the driver's JSON result. Exits non-zero, without a result, when the build
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return built.returncode or 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
