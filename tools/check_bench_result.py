#!/usr/bin/env python3
"""Checks one gefbench run's stdout against BENCHMARK.json's contract.

Usage (from the repository root):

    python3 gefbench/run.py --workload serve_mixed --seed 1 --seconds 4 \
        --trace 1 | python3 tools/check_bench_result.py --trace 1

The run passes when its last non-empty stdout line is a result object
with "correct": true, it reports every metric BENCHMARK.json declares
for the trace mode (the end_to_end list for --trace 0, the per_layer
list for --trace 1), and every reported value is finite. A metric the
harness leaves out (e.g. because its /metrics source is gone) fails
the check, naming the metric. Exit status 0 on pass, 1 otherwise.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(benchmark, stdout, trace):
    """Returns the list of contract violations (empty on pass)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError as error:
        return ["last line is not JSON (%s): %r" % (error, lines[-1][:200])]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = []
    if result.get("correct") is not True:
        problems.append("result is not correct: true")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["result carries no metrics object"]
    declared = benchmark["per_layer" if trace else "end_to_end"]
    for metric in declared:
        if metric["name"] not in metrics:
            problems.append("missing metric %s" % metric["name"])
    for name, entry in sorted(metrics.items()):
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("metric %s has no finite value: %r"
                            % (name, entry))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="the --trace value the run used")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    stdout = sys.stdin.read()

    problems = check(benchmark, stdout, args.trace)
    for problem in problems:
        print("check_bench_result: %s" % problem, file=sys.stderr)
    if problems:
        return 1
    print("check_bench_result: ok (%d declared metrics, trace %d)"
          % (len(benchmark["per_layer" if args.trace else "end_to_end"]),
             args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
