#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload solve-dram --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench (and the repo libraries it links) with CMake under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed.  Build output goes to stderr.  The driver's
stdout is passed through: the host fingerprint, each check's verdict,
every metric with its unit and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("solve-dram", "solve-small")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run(cmd, timeout, stdout):
    """Run cmd to completion; a timeout kills it and counts as failure."""
    proc = subprocess.Popen(cmd, stdout=stdout, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s",
              file=sys.stderr)
        return 1


def build(out, target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print(f"perfbench: no repo sources next to {HERE}", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
               BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    jobs = str(min(3, os.cpu_count() or 1))
    return run(["cmake", "--build", out, "-j", jobs, "--target", target],
               BUILD_TIMEOUT_S, sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    target = "perfbench_tests" if args.selftest else "perfbench"
    if not build(out, target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return run([os.path.join(out, "perfbench_tests")], RUN_TIMEOUT_S,
                   sys.stdout)
    rel_out = os.path.relpath(out, ROOT)
    return run([os.path.join(out, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", rel_out], RUN_TIMEOUT_S,
               sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
