#!/usr/bin/env bash
# Fails if a deleted parity copy or ablation comes back. The tree keeps one
# implementation of each piece; what checks it is the paper's own
# definitions (the naive EC enumerator in cost/expected_cost.cc, the
# exhaustive oracle), the DP golden (tests/golden/dp_counters.txt) and the
# fuzz invariants — not a frozen copy of older code. The names below are
# those copies and the options that selected them, plus the retired second
# serving path (the batch driver) and its expected-cost memo cache.
#
# Usage: tools/check_no_frozen_copies.sh
# Scans src/, tests/, bench/, tools/ and examples/. One exception: the
# wire format still carries the retired use_dist_kernels bool (written
# constant, ignored on read), so src/service/serde.cc may name it.
# Exit status: 0 when none appear, 1 otherwise (each hit is listed).
set -u
cd "$(dirname "$0")/.."

self="tools/$(basename "$0")"
names=(
  RunDpLegacy
  ErasedCostProvider
  JoinCostFn
  SortCostFn
  'legacy::'
  OptimizeAlgorithmDLegacy
  kMaxDenseSizeTableEntries
  use_dist_kernels
  ExecutePlanOnEngine
  EngineRunResult
  eager_invalidate_sweep
  EcCache
  RunBatch
  BatchOptions
  BatchReport
  use_ec_cache
  PlanExpectedCostStaticCached
  LecStaticMemoizedCostProvider
)

fail=0
for name in "${names[@]}"; do
  hits=$(grep -rnF -- "$name" src tests bench tools examples | grep -v "^$self:")
  if [ "$name" = use_dist_kernels ]; then
    hits=$(printf '%s\n' "$hits" | grep -v '^src/service/serde\.cc:')
  fi
  hits=$(printf '%s\n' "$hits" | sed '/^$/d')
  if [ -n "$hits" ]; then
    echo "!! deleted name '$name' reappears:"
    printf '%s\n' "$hits"
    fail=1
  fi
done
[ "$fail" -eq 0 ] && echo "no frozen copies (${#names[@]} names checked)"
exit "$fail"
