#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the program's
sources under src/) into .bench_build/perfbench on first use, then runs it.
Build output goes to stderr, so the last line of stdout is the result
object. Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("portal_mix", "announce_churn", "closed_loop")
RUN_TIMEOUT_S = 170
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "itracker.h")):
        sys.exit("perfbench: program sources (src/) not found in %s" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if run(cmd, timeout=None, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def run(cmd, timeout=RUN_TIMEOUT_S, stdout=None):
    """Runs cmd to completion. If this script is stopped (SIGTERM/SIGINT)
    or the timeout passes, the child is killed and reaped first."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=stdout)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % timeout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own self-tests")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build(BUILD_DIR)
    if args.selftest:
        return run([os.path.join(BUILD_DIR, "perfbench_selftest")])
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return run([os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace), "--trace-dir", trace_dir])


if __name__ == "__main__":
    sys.exit(main())
