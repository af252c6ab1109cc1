#!/usr/bin/env python3
"""Repository benchmark: builds perfbench (Release) and runs one workload.

    python3 perfbench/run.py --workload exp1-paper|alibaba-100|storm-25 \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfbench binary into .bench_build/perfbench (about a
minute on 4 cores); later runs only check that the build is current.
Build output goes to stderr, so the last line on stdout is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics and --trace 1 the per-layer ones
(spans go to .bench_build/perfbench-out/spans-<workload>.jsonl). Every run
checks the workload's outputs; a failed check, a failed build or a missing
library source tree exits non-zero without printing a result. Metric
definitions and the workloads' rationale are in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("exp1-paper", "alibaba-100", "storm-25")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not True or \
            sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(proc.stdout)
        fail("perfbench printed a malformed or incorrect result")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
