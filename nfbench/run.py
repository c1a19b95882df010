#!/usr/bin/env python3
"""Builds nfbench from the enclosing source tree and runs one workload.

    python3 nfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ next to this directory (configured once,
then rebuilt incrementally); build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Spans of a traced run are written
to .bench_build/traces/. Exits non-zero, without a result, when the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "nfbench", "-j", jobs],
        stdout=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(BUILD, "nfbench")


def main():
    binary = build()
    if binary is None:
        print("nfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(BUILD, "traces")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
