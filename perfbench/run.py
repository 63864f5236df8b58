#!/usr/bin/env python3
"""Builds the DABS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <k2000-sync|g22-bulk|http-jobs> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark program
(Release) under .bench_build/perfbench at the repository root; later calls
rebuild incrementally.  Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result.  Traces, result files and the
server journal land in .bench_build/perfbench-out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "dabs_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (a no-op on a configured tree) and builds incrementally;
    True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "dabs_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["k2000-sync", "g22-bulk", "http-jobs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject", choices=["bad-energy", "bad-verify"],
                        help="self-test only: corrupt one result")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT, "--ref-dir", os.path.join(HERE, "refs")]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
