#!/usr/bin/env bash
# Builds every bench_* target and runs them all, recording wall-clock
# timings (and each bench's exit status) as JSON — the start of the perf
# trajectory across PRs.
#
# Usage:  bench/run_all.sh [label] [--repeat=K]
#   label      suffix for the output file, default "seed" -> BENCH_seed.json
#   --repeat=K run every bench K times (default 1) and gate on the
#              per-metric MEDIAN of the K runs — the cheap defense against
#              co-tenant noise on shared CI runners. Exception: metrics
#              whose name contains "_p99" fold by MAX instead — a tail
#              latency's honest value is its worst repetition, and taking
#              the median of p99s would let a flaky tail hide behind two
#              quiet runs. Wall-clock seconds are the median too; a bench
#              fails if ANY repetition fails.
#
# Environment:
#   BUILD_DIR   build directory (default: build)
#   OUT_DIR     where to write the JSON (default: repo root)
set -u

cd "$(dirname "$0")/.."
REPEAT=1
positional=()
for arg in "$@"; do
  case "$arg" in
    --repeat=*) REPEAT="${arg#--repeat=}" ;;
    *) positional+=("$arg") ;;
  esac
done
case "$REPEAT" in
  ''|*[!0-9]*|0) echo "bad --repeat value: must be a positive integer" >&2
                 exit 2 ;;
esac
# Restrict the label (and hostname below) to JSON-safe characters.
LABEL="$(printf '%s' "${positional[0]:-seed}" | tr -cd 'A-Za-z0-9._-')"
LABEL="${LABEL:-seed}"
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-.}"
OUT="${OUT_DIR}/BENCH_${LABEL}.json"

cmake -B "$BUILD_DIR" -S . >/dev/null || exit 1
cmake --build "$BUILD_DIR" --target benches -j "$(nproc)" >/dev/null || exit 1

# Median of the numbers on stdin (one per line); lower-middle averaging for
# even counts. Used for both per-bench seconds and per-metric BUDGET values.
median() {
  sort -g | awk '{ a[NR] = $1 }
    END { if (NR == 0) { print 0; exit }
          if (NR % 2) printf "%.9g\n", a[(NR + 1) / 2]
          else printf "%.9g\n", (a[NR / 2] + a[NR / 2 + 1]) / 2 }'
}

# The .out file of repetition $2 of bench $1 (rep 1 keeps the historical
# un-suffixed name so stale-file semantics are unchanged for K=1).
rep_out() {
  if [ "$2" -eq 1 ]; then echo "$BUILD_DIR/$1.out"
  else echo "$BUILD_DIR/$1.out.rep$2"; fi
}

benches=()
for src in bench/bench_*.cc; do
  name="$(basename "$src" .cc)"
  [ -x "$BUILD_DIR/$name" ] && benches+=("$name")
done

echo "Running ${#benches[@]} benches x$REPEAT -> $OUT"
{
  echo "{"
  printf '  "label": "%s",\n' "$LABEL"
  printf '  "repeat": %d,\n' "$REPEAT"
  printf '  "hostname": "%s",\n' "$(hostname | tr -cd 'A-Za-z0-9._-')"
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo '  "benches": ['
} > "$OUT"

first=1
any_fail=0
for name in "${benches[@]}"; do
  echo "== $name"
  status=0
  rep_secs=""
  for r in $(seq 1 "$REPEAT"); do
    start=$(date +%s.%N)
    "$BUILD_DIR/$name" > "$(rep_out "$name" "$r")" 2>&1
    st=$?
    end=$(date +%s.%N)
    [ "$st" -ne 0 ] && status=$st
    rep_secs="$rep_secs$(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')
"
  done
  secs=$(printf '%s' "$rep_secs" | median)
  [ $first -eq 0 ] && echo "    ," >> "$OUT"
  first=0
  printf '    {"name": "%s", "seconds": %s, "exit": %d}\n' \
    "$name" "$secs" "$status" >> "$OUT"
  if [ "$status" -ne 0 ]; then
    echo "!! $name exited with status $status"
    any_fail=1
  fi
done

# ---- perf-budget gate (bench/budgets.json) --------------------------------
# Bench binaries emit machine-readable "BUDGET <metric> <value>" lines —
# timing ratios, work counters and steady-state allocation counts, chosen to be
# stable across hardware (raw ns/op is informational only). The metrics are
# recorded into the JSON and compared against the blessed values in
# bench/budgets.json: a metric observed above blessed * 1.25 (a >25%
# regression) fails the run, so the CI bench smoke gates on performance,
# not just correctness. With --repeat=K the gated value is the median of
# the K observations ("*_p99*" metrics: the max — see the usage note).
# Only the .out files of benches that ran THIS invocation: a stale .out
# from a renamed/removed bench must neither resurrect dead metrics nor
# fail the gate for a bench that never executed.
metrics_file="$BUILD_DIR/budget_metrics.txt"
: > "$metrics_file.raw"
for name in "${benches[@]}"; do
  for r in $(seq 1 "$REPEAT"); do
    grep -h '^BUDGET ' "$(rep_out "$name" "$r")" 2>/dev/null || true
  done
done | awk '{print $2, $3}' >> "$metrics_file.raw"

budget_fail=0
# Integrity of the metrics BEFORE anything is written to the JSON: a
# non-numeric value (inf/nan from a broken timer) would render the
# artifact unparseable and be coerced to 0 by the gate's awk — silently
# passing — and duplicate names would produce duplicate JSON keys. Flag
# both, then keep only well-formed occurrences so the uploaded artifact
# stays valid JSON even when the run fails. Duplicates are detected within
# ONE repetition (rep 1): across repetitions every metric legitimately
# appears K times, which the median fold absorbs.
bad_values=$(awk '$2 !~ /^-?[0-9][0-9.eE+-]*$/ {print $1}' "$metrics_file.raw")
if [ -n "$bad_values" ]; then
  echo "!! non-numeric BUDGET value(s): $bad_values"
  budget_fail=1
fi
dup_names=$(for name in "${benches[@]}"; do
              grep -h '^BUDGET ' "$(rep_out "$name" 1)" 2>/dev/null || true
            done | awk '{print $2}' | sort | uniq -d)
if [ -n "$dup_names" ]; then
  echo "!! duplicate BUDGET metric name(s): $dup_names"
  budget_fail=1
fi
# Per-metric fold over the repetitions, first-seen order preserved:
# median for everything, except "*_p99*" tail metrics which take the MAX
# (the worst repetition IS the tail — medianing p99s would average the
# noise the metric exists to expose).
awk '$2 ~ /^-?[0-9][0-9.eE+-]*$/ {
       n = cnt[$1]++
       vals[$1, n] = $2 + 0
       if (!($1 in seen)) { seen[$1] = 1; names[++num] = $1 }
     }
     END {
       for (k = 1; k <= num; ++k) {
         m = names[k]; c = cnt[m]
         for (i = 0; i < c; ++i) a[i] = vals[m, i]
         for (i = 1; i < c; ++i) {
           v = a[i]; j = i - 1
           while (j >= 0 && a[j] > v) { a[j + 1] = a[j]; --j }
           a[j + 1] = v
         }
         if (m ~ /_p99/) agg = a[c - 1]
         else if (c % 2) agg = a[int(c / 2)]
         else agg = (a[c / 2 - 1] + a[c / 2]) / 2
         printf "%s %.9g\n", m, agg
       }
     }' "$metrics_file.raw" > "$metrics_file"

{
  echo "  ],"
  echo '  "metrics": {'
  first_m=1
  while read -r name value; do
    [ $first_m -eq 0 ] && echo "    ,"
    first_m=0
    printf '    "%s": %s\n' "$name" "$value"
  done < "$metrics_file"
  echo "  }"
  echo "}"
} >> "$OUT"
echo "Wrote $OUT"

if [ -f bench/budgets.json ]; then
  # Every gated metric is printed with its delta against the blessed value
  # — pass or fail — so a PR run shows where headroom went, not only when
  # it is already gone.
  while read -r name value; do
    budget=$(grep -o "\"$name\"[[:space:]]*:[[:space:]]*[0-9.eE+-]*" \
               bench/budgets.json | head -n1 | sed 's/.*://' | tr -d ' ')
    [ -z "$budget" ] && continue
    delta=$(awk -v v="$value" -v b="$budget" \
              'BEGIN { if (b == 0) print "blessed 0"
                       else printf "%+.1f%% vs blessed", (v / b - 1) * 100 }')
    if [ "$(awk -v v="$value" -v b="$budget" \
             'BEGIN { print (v > b * 1.25 + 1e-12) ? 1 : 0 }')" -eq 1 ]; then
      echo "!! perf budget exceeded: $name = $value (blessed $budget, $delta, +25% allowed)"
      budget_fail=1
    else
      echo "   $name = $value (blessed $budget, $delta)"
    fi
  done < "$metrics_file"
  # Reverse check: every blessed metric must have been observed this run —
  # a metric that silently stops being emitted (renamed bench, dropped
  # EmitBudget call) would otherwise disable its gate with CI still green.
  while read -r name; do
    if ! grep -q "^$name " "$metrics_file"; then
      echo "!! blessed metric never emitted this run: $name"
      budget_fail=1
    fi
  done < <(grep -o '"[A-Za-z0-9_]*"[[:space:]]*:' bench/budgets.json \
             | sed 's/"//g; s/[[:space:]]*:$//' | grep -v '^_comment$')
  [ "$budget_fail" -eq 0 ] && echo "perf budgets OK ($(wc -l < "$metrics_file") gated metrics)"
fi

# Nonzero exit when any bench failed or a perf budget regressed, so CI
# smoke runs actually gate; the JSON above is still written in full either
# way.
[ "$any_fail" -ne 0 ] && exit "$any_fail"
exit "$budget_fail"
