#!/usr/bin/env python3
"""Builds the benchmark harness and runs one workload in a fresh process.

Usage (from the repository root):

    python3 gefbench/run.py --workload explain_census --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/gefbench (default .bench_build) as a
Release build; run files go to a per-run directory beneath it that is
removed afterwards. The harness's last stdout line is the result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("explain_census", "serve_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("gefbench: repository sources not found; cannot build")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "gefbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build_dir = os.path.join(target, "gefbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("gefbench: build failed: %s" % error)

    work_dir = os.path.join(target, "gefbench-runs", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    # Tracing and the pool size are chosen by the harness per workload;
    # inherited settings would skew the untraced runs.
    env = dict(os.environ)
    env.pop("GEF_TRACE", None)
    env.pop("GEF_NUM_THREADS", None)
    try:
        result = subprocess.run(
            [os.path.join(build_dir, "gefbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S,
            check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("gefbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
