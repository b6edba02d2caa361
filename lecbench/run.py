#!/usr/bin/env python3
"""Builds and runs the lecopt benchmark for one workload.

Usage, from the root of a checkout:

    python3 lecbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built from the checkout's sources
(lecbench/CMakeLists.txt compiles ../src) into the directory named by
CARGO_TARGET_DIR, default `.bench_build`, relative to the checkout root. The binary's report lines are
echoed, and the last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). Exits non-zero, without a JSON line, when the
build or the run fails, and non-zero after the JSON line when a correctness
check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then lets CMake decide what is stale. A lock keeps
    concurrent invocations from building over each other."""
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "lec_bench")
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    if not os.path.exists(binary):
        fail("build produced no lec_bench binary")
    return binary


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    wanted = declared_metrics(args.trace)
    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    metrics = {}
    result = None
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["METRIC"] and len(parts) == 4:
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts[:1] == ["RESULT"] and len(parts) == 4:
            result = (parts[1] == "1", int(parts[2]), int(parts[3]))
        else:
            print(line)
    if result is None:
        fail(f"lec_bench exited with {proc.returncode} and no result")
    correct, attempted, failed = result

    report = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail(f"lec_bench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, declared {m['unit']}")
        report[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    sys.stdout.flush()
    sys.exit(0 if correct and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
