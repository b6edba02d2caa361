#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 lecbench/check.py [--seconds N]

1. API surface: the benchmark's sources name none of the APIs slated for
   deletion, so deleting them never forces a benchmark edit.
2. Exact repeat: each workload runs twice, traced, on one seed. The digest
   (FNV over every served objective, every count, plan_cost_ratio and
   error_rate) and every count metric must be identical.
3. Tracing changes nothing served: an untraced run on the same seed prints
   the same digest.
4. The seed reaches the generator: a second seed prints a different digest.

Exits non-zero on any failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["plan_cold", "serve_hot", "plan_wide", "execute_drift"]
SOURCES = ["lec_bench.cc", "run.py", "CMakeLists.txt"]
# Frozen parity copies and ablations the ROADMAP deletes.
FORBIDDEN = ["RunDpLegacy", "kMaxFlatDpEntries", "use_dist_kernels",
             "legacy::", "ErasedCostProvider", "RunDp(", "JoinCostFn",
             "SortCostFn", "ExecutePlanOnEngine", "eager_invalidate_sweep"]


def is_timing(name, unit):
    """Per-layer timings and the trace.* shares derived from them; every
    other per-layer metric is a count or a ratio of counts and must repeat
    exactly."""
    return unit in ("us", "s") or name.startswith("trace.")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    digest = [l.split()[1] for l in lines if l.startswith("digest ")]
    result = json.loads(lines[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if not is_timing(k, v["unit"])}
    return digest[0], counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    failures = []

    for name in SOURCES:
        with open(os.path.join(HERE, name)) as f:
            text = f.read()
        for api in FORBIDDEN:
            if api in text:
                failures.append(f"{name} uses {api}")

    for w in WORKLOADS:
        first = run(w, 1, args.seconds, 1)
        second = run(w, 1, args.seconds, 1)
        untraced, _ = run(w, 1, args.seconds, 0)
        other, _ = run(w, 2, args.seconds, 0)
        if first != second:
            failures.append(f"{w}: traced runs on one seed differ: "
                            f"{first} vs {second}")
        if untraced != first[0]:
            failures.append(f"{w}: untraced digest {untraced} differs from "
                            f"traced {first[0]}")
        if other == first[0]:
            failures.append(f"{w}: seed 2 served the same digest as seed 1")
        print(f"{w}: digest {first[0]}, seed 2 {other}")

    for f in failures:
        print(f"FAIL {f}")
    print("ok" if not failures else f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
