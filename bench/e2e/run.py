#!/usr/bin/env python3
"""Builds gstm_bench from the checkout it sits in and runs one workload.

    python3 bench/e2e/run.py --workload guided-genome --seed 1 \
        --seconds 20 --trace 0

The program is configured and built under .bench_build/e2e at the root of
the checkout (the first run builds; later runs only check it is current).
gstm_bench's report is echoed, then one JSON line follows as the last line
of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list (that run also writes its spans to
.bench_build/trace/<workload>-seed<N>.json). Exits non-zero without a JSON
line when the program cannot be built or a listed metric is missing, and
non-zero after the JSON line when a verification failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BENCH_BIN = os.path.join(BUILD_DIR, "gstm_bench")
# The first build compiles the program's libraries (about half a minute on
# two cores); a run measures --seconds plus set-up, well inside this bound.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no program sources at {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gstm_bench",
                  "-j", "2"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            die(f"build step failed ({done.returncode}): {' '.join(step)}")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cmd = [BENCH_BIN, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--models={HERE}/models",
           f"--git-sha={git_sha()}"]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append(f"--trace={trace_dir}/{args.workload}-seed{args.seed}.json")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"gstm_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)

    printed, attempted, failed = {}, None, None
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = (float(fields[2]), fields[3])
        elif len(fields) == 3 and fields[0] == "result":
            attempted = int(fields[1].split("=")[1])
            failed = int(fields[2].split("=")[1])
    if attempted is None:
        die(f"gstm_bench exited {done.returncode} without a result",
            done.returncode or 2)

    metrics = {}
    for m in wanted:
        if m["name"] not in printed or printed[m["name"]][1] != m["unit"]:
            die(f"gstm_bench did not print {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": printed[m["name"]][0],
                              "unit": m["unit"]}
    correct = done.returncode == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
