// E18 — Arena-backed distribution kernels vs the legacy heap pipeline.
//
// PR 4's tentpole claims, measured:
//   * the §3.6 fast-EC sweep on SoA views with precompiled step thresholds
//     beats the legacy Distribution-cursor implementation (target >= 2x);
//   * the §3.6.3 size-propagation pipeline (product + rebucket) on arena
//     views beats the Distribution-returning pipeline;
//   * the flat decision-table RunDp beats the legacy map-based DP end to
//     end (target >= 1.5x at n = 10);
//   * a warmed arena performs zero steady-state heap allocations.
//
// Deliberately self-timed (no Google Benchmark dependency) so this binary
// always builds: it feeds the perf-budget gate. Machine-readable "BUDGET
// <metric> <value>" lines are captured by bench/run_all.sh into
// BENCH_<label>.json and compared against the checked-in bench/budgets.json
// — the run fails CI when a gated metric regresses by more than 25%. Gated
// metrics are RATIOS (kernel time / legacy time, steady-state allocation
// counts), which are stable across machines; raw ns/op is printed for
// humans but never gated.
//
// The binary also re-verifies kernel/legacy agreement on every workload it
// times and exits nonzero on a mismatch, so the perf gate cannot pass on a
// kernel that got fast by being wrong.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "cost/cost_policies.h"
#include "cost/fast_expected_cost.h"
#include "cost/size_propagation.h"
#include "dist/arena.h"
#include "dist/builders.h"
#include "dist/kernel.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/dp_common.h"
#include "query/generator.h"
#include "util/rng.h"
#include "util/wall_timer.h"
#include "verify/tolerance.h"

using namespace lec;

namespace {

int g_failures = 0;

void EmitBudget(const char* metric, double value) {
  std::printf("BUDGET %s %.6f\n", metric, value);
}

// The same bound I7 enforces (verify/tolerance.h), so the perf gate and
// the fuzz invariant cannot disagree about what "agreement" means.
void CheckAgreement(const char* what, double kernel, double legacy) {
  if (!verify::ApproxEqual(kernel, legacy, verify::kKernelParityRelTol)) {
    std::printf("!! %s: kernel %.17g vs legacy %.17g (rel %.3e)\n", what,
                kernel, legacy, verify::RelativeError(kernel, legacy));
    ++g_failures;
  }
}

Distribution RandomDist(size_t buckets, double lo, double hi, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bucket> out;
  for (size_t i = 0; i < buckets; ++i) {
    out.push_back({rng.LogUniform(lo, hi), rng.Uniform(0.05, 1.0)});
  }
  return Distribution(std::move(out));
}

/// ns per call of `fn` (runs it `iters` times; returns total/iters).
template <typename F>
double TimeNs(size_t iters, F&& fn) {
  WallTimer timer;
  for (size_t i = 0; i < iters; ++i) fn();
  return timer.Seconds() * 1e9 / static_cast<double>(iters);
}

/// Gated ratios use the min over interleaved repetitions of both sides:
/// a co-tenant burst on a shared CI runner that lands in one measurement
/// window inflates that sample only, and the min discards it — the gate
/// stays a code-change detector, not a machine-load detector.
template <typename FLegacy, typename FKernel>
void TimeRatioNs(size_t iters, const FLegacy& legacy_fn,
                 const FKernel& kernel_fn, double* legacy_ns,
                 double* kernel_ns) {
  *legacy_ns = *kernel_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    *legacy_ns = std::min(*legacy_ns, TimeNs(iters, legacy_fn));
    *kernel_ns = std::min(*kernel_ns, TimeNs(iters, kernel_fn));
  }
}

// ---------------------------------------------------------------------------
// Fast-EC sweep: kernel (prebuilt profile) vs legacy cursor.
// ---------------------------------------------------------------------------

void BenchFastEc() {
  bench::Header("E18.1", "fast-EC sweep: SoA kernel vs legacy cursors");
  std::printf("%-10s %-5s %12s %12s %10s\n", "method", "b", "legacy ns",
              "kernel ns", "ratio");
  bench::Rule();
  const struct {
    JoinMethod method;
    const char* name;
  } kMethods[] = {{JoinMethod::kSortMerge, "sortmerge"},
                  {JoinMethod::kNestedLoop, "nestedloop"},
                  {JoinMethod::kGraceHash, "gracehash"}};
  DistArena arena;
  for (size_t b : {8u, 27u, 64u}) {
    Distribution a = RandomDist(b, 100, 1e6, 11);
    Distribution bd = RandomDist(b, 100, 1e6, 22);
    Distribution m = RandomDist(b, 4, 4000, 33);
    arena.Reset();
    EcMemoryProfile profile = BuildEcMemoryProfile(m.AsView(), &arena);
    DistView av = a.AsView(), bv = bd.AsView();
    // Algorithm D holds per-subset means alongside the views; feed the
    // kernel the same way it is fed on the real hot path.
    double a_mean = a.Mean(), b_mean = bd.Mean();
    size_t iters = 2'000'000 / b + 1;
    for (const auto& mm : kMethods) {
      CheckAgreement("fast-EC kernel vs legacy",
                     FastEcJoin(mm.method, av, bv, profile, a_mean, b_mean),
                     legacy::FastExpectedJoinCost(mm.method, a, bd, m));
      volatile double sink = 0;
      double legacy_ns, kernel_ns;
      TimeRatioNs(
          iters,
          [&] { sink = legacy::FastExpectedJoinCost(mm.method, a, bd, m); },
          [&] { sink = FastEcJoin(mm.method, av, bv, profile, a_mean,
                                  b_mean); },
          &legacy_ns, &kernel_ns);
      (void)sink;
      double ratio = kernel_ns / legacy_ns;
      std::printf("%-10s %-5zu %12.1f %12.1f %10.3f\n", mm.name, b,
                  legacy_ns, kernel_ns, ratio);
      if (b == 27) {
        char metric[64];
        std::snprintf(metric, sizeof(metric), "fast_ec_%s_ratio_b27",
                      mm.name);
        EmitBudget(metric, ratio);
      }
    }
  }
  std::printf("\nratio = kernel/legacy; < 0.5 means the >= 2x tentpole "
              "target holds.\n");
}

// ---------------------------------------------------------------------------
// Size propagation: arena pipeline vs Distribution pipeline.
// ---------------------------------------------------------------------------

void BenchSizePropagation() {
  bench::Header("E18.2",
                "size propagation (product+rebucket): arena vs heap");
  std::printf("%-22s %12s %12s %10s\n", "pipeline", "legacy ns", "kernel ns",
              "ratio");
  bench::Rule();
  Distribution l = RandomDist(27, 100, 1e6, 1);
  Distribution r = RandomDist(27, 100, 1e6, 2);
  Distribution s = RandomDist(27, 0.001, 0.2, 3);
  DistArena arena;
  // Agreement first.
  {
    Distribution want = JoinSizeDistribution(l, r, s, 27,
                                             SizePropagationMode::kCubeRootPrebucket);
    DistView got = JoinSizeViewInto(l.AsView(), r.AsView(), s.AsView(), 27,
                                    SizePropagationMode::kCubeRootPrebucket,
                                    &arena);
    CheckAgreement("join-size mean", ViewMean(got), want.Mean());
  }
  size_t iters = 40'000;
  volatile double sink = 0;
  double legacy_ns, kernel_ns;
  TimeRatioNs(
      iters,
      [&] {
        sink = JoinSizeDistribution(l, r, s, 27,
                                    SizePropagationMode::kCubeRootPrebucket)
                   .Mean();
      },
      [&] {
        arena.Reset();
        sink = ViewMean(JoinSizeViewInto(
            l.AsView(), r.AsView(), s.AsView(), 27,
            SizePropagationMode::kCubeRootPrebucket, &arena));
      },
      &legacy_ns, &kernel_ns);
  (void)sink;
  double ratio = kernel_ns / legacy_ns;
  std::printf("%-22s %12.1f %12.1f %10.3f\n", "join_size b=27", legacy_ns,
              kernel_ns, ratio);
  EmitBudget("size_propagation_ratio_b27", ratio);
}

// ---------------------------------------------------------------------------
// End-to-end DP: flat decision-table RunDp vs legacy map-based DP at n=10.
// ---------------------------------------------------------------------------

Workload ChainWorkload(int n) {
  Rng rng(static_cast<uint64_t>(n) * 77 + 13);
  WorkloadOptions wopts;
  wopts.num_tables = n;
  wopts.shape = JoinGraphShape::kChain;
  wopts.order_by_probability = 1.0;
  return GenerateWorkload(wopts, &rng);
}

void BenchDp() {
  bench::Header("E18.3", "RunDp vs RunDpLegacy, n=10 chain");
  std::printf("%-14s %14s %14s %10s\n", "regime", "legacy us", "new us",
              "ratio");
  bench::Rule();
  Workload w = ChainWorkload(10);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 27);
  OptimizerOptions opts;
  // Pruning off: this metric isolates the sparse-table-vs-map axis, and
  // RunDpLegacy never prunes. The pruning axis is E20 (bench_dp_pruning).
  opts.dp_pruning = DpPruning::kOff;
  DpContext ctx(w.query, w.catalog, opts);
  LscCostProvider lsc{model, 800};
  LecStaticCostProvider lec{model, memory};

  auto bench_regime = [&](const char* name, const auto& provider,
                          const char* metric) {
    OptimizeResult a = RunDp(ctx, provider);       // also warms the scratch
    OptimizeResult b = RunDpLegacy(ctx, provider);
    CheckAgreement("RunDp objective", a.objective, b.objective);
    size_t iters = 400;
    volatile double sink = 0;
    double legacy_ns, new_ns;
    TimeRatioNs(iters,
                [&] { sink = RunDpLegacy(ctx, provider).objective; },
                [&] { sink = RunDp(ctx, provider).objective; }, &legacy_ns,
                &new_ns);
    (void)sink;
    double ratio = new_ns / legacy_ns;
    std::printf("%-14s %14.1f %14.1f %10.3f\n", name, legacy_ns / 1e3,
                new_ns / 1e3, ratio);
    EmitBudget(metric, ratio);
  };
  bench_regime("lsc", lsc, "dp_lsc_n10_ratio");
  bench_regime("lec_static", lec, "dp_lec_static_n10_ratio");
  std::printf("\nratio < 0.667 means the >= 1.5x end-to-end target holds.\n");
}

// ---------------------------------------------------------------------------
// Steady-state allocations: the arena must go silent after warm-up.
// ---------------------------------------------------------------------------

void BenchSteadyStateAllocations() {
  bench::Header("E18.4", "arena steady state across repeated optimizations");
  Workload w = ChainWorkload(8);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 9);
  DistArena arena;
  OptimizerOptions opts;
  opts.dist_arena = &arena;
  // Warm-up (sizing) plus one run that may coalesce grown blocks.
  OptimizeResult warm =
      OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
  OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
  size_t before = arena.heap_allocations();
  for (int i = 0; i < 100; ++i) {
    OptimizeResult again =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
    CheckAgreement("algorithm_d steady objective", again.objective,
                   warm.objective);
  }
  size_t grown = arena.heap_allocations() - before;
  std::printf("arena heap allocations across 100 warmed optimizations: %zu\n"
              "arena high-water mark: %zu doubles (%.1f KiB)\n",
              grown, arena.high_water_doubles(),
              static_cast<double>(arena.high_water_doubles()) * 8.0 / 1024);
  EmitBudget("arena_steady_state_allocs_per_100_runs",
             static_cast<double>(grown));
}

}  // namespace

int main() {
  BenchFastEc();
  BenchSizePropagation();
  BenchDp();
  BenchSteadyStateAllocations();
  if (g_failures > 0) {
    std::printf("\n%d kernel/legacy agreement failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
