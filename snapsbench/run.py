#!/usr/bin/env python3
"""Builds the SNAPS benchmark from the tree and runs one workload.

    python3 snapsbench/run.py --workload search-hot --seed 1 --seconds 10 --trace 0
    python3 snapsbench/run.py --self-test

Run it from the repository root. The build (optimised, not timed) goes
to $CARGO_TARGET_DIR/snapsbench, default .bench_build/snapsbench; the
workload's scratch files go under .bench_build/work and are removed when
it ends; traced runs write their Chrome trace to .bench_results/. The
last line of standard output is the run's JSON result; build output and
diagnostics go to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("offline-kil", "search-hot", "serve-typo-reload")


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target", "snapsbench",
              "snapsbench_selftest"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        # Configured once; the build step re-configures when a CMake file changes.
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", "snapsbench", "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("snapsbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("snapsbench: run from the repository root (no src/CMakeLists.txt here)")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "snapsbench")
    build(build_dir)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(build_dir, "snapsbench_selftest")]).returncode)

    work_dir = os.path.join(root, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(build_dir, "snapsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--results-dir", ".bench_results"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
