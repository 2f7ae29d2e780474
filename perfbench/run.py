#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and bin/hsched.exe with dune into .bench_build
(build output goes to standard error), then runs the benchmark, whose
last line of standard output is the result object.  Exits non-zero,
printing no result, when the build fails, e.g. when the solver sources
are not there.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/bench.exe", "./bin/hsched.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    bench = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    hsched = os.path.join(BUILD_DIR, "default", "bin", "hsched.exe")
    return subprocess.run([bench, *sys.argv[1:], "--hsched", hsched]).returncode


if __name__ == "__main__":
    sys.exit(main())
