// E18 — Arena-backed distribution kernels.
//
// Measured:
//   * the §3.6 fast-EC sweep on SoA views with precompiled step thresholds
//     against the paper's EC definition, the naive b^3 triple enumeration
//     ExpectedJoinCost — the linear-vs-cubic gap the sweeps exist for;
//   * the §3.6.3 size-propagation pipeline (product + rebucket) on arena
//     views against the Distribution-returning pipeline;
//   * the DP core's work on an n = 10 chain, as exact counters
//     (candidates_considered, cost_evaluations of the unpruned RunDp);
//   * a warmed arena performs zero steady-state heap allocations.
//
// Deliberately self-timed (no Google Benchmark dependency) so this binary
// always builds: it feeds the perf-budget gate. Machine-readable "BUDGET
// <metric> <value>" lines are captured by bench/run_all.sh into
// BENCH_<label>.json and compared against the checked-in bench/budgets.json
// — the run fails CI when a gated metric regresses by more than 25%. Gated
// metrics are RATIOS (kernel time / reference time) and COUNTS (DP work,
// steady-state allocations), which are stable across machines; raw ns/op
// is printed for humans but never gated.
//
// The binary also re-verifies kernel/reference agreement on every workload
// it times and exits nonzero on a mismatch, so the perf gate cannot pass on
// a kernel that got fast by being wrong.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "cost/cost_policies.h"
#include "cost/expected_cost.h"
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
void CheckAgreement(const char* what, double kernel, double reference) {
  if (!verify::ApproxEqual(kernel, reference, verify::kKernelParityRelTol)) {
    std::printf("!! %s: kernel %.17g vs reference %.17g (rel %.3e)\n", what,
                kernel, reference, verify::RelativeError(kernel, reference));
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
template <typename FReference, typename FKernel>
void TimeRatioNs(size_t reference_iters, size_t kernel_iters,
                 const FReference& reference_fn, const FKernel& kernel_fn,
                 double* reference_ns, double* kernel_ns) {
  *reference_ns = *kernel_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    *reference_ns =
        std::min(*reference_ns, TimeNs(reference_iters, reference_fn));
    *kernel_ns = std::min(*kernel_ns, TimeNs(kernel_iters, kernel_fn));
  }
}

// ---------------------------------------------------------------------------
// Fast-EC sweep: kernel (prebuilt profile) vs the naive triple enumeration.
// ---------------------------------------------------------------------------

void BenchFastEc() {
  bench::Header("E18.1",
                "fast-EC sweep: SoA kernel vs naive enumeration (EC defn)");
  std::printf("%-10s %-5s %12s %12s %10s\n", "method", "b", "naive ns",
              "kernel ns", "ratio");
  bench::Rule();
  const struct {
    JoinMethod method;
    const char* name;
  } kMethods[] = {{JoinMethod::kSortMerge, "sortmerge"},
                  {JoinMethod::kNestedLoop, "nestedloop"},
                  {JoinMethod::kGraceHash, "gracehash"}};
  CostModel model;
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
    size_t kernel_iters = 2'000'000 / b + 1;
    size_t naive_iters = 20'000'000 / (b * b * b) + 1;
    for (const auto& mm : kMethods) {
      auto naive = [&] {
        return ExpectedJoinCost(model, mm.method, a, bd, m,
                                /*left_sorted=*/false,
                                /*right_sorted=*/false);
      };
      CheckAgreement("fast-EC kernel vs naive enumeration",
                     FastEcJoin(mm.method, av, bv, profile, a_mean, b_mean),
                     naive());
      volatile double sink = 0;
      double naive_ns, kernel_ns;
      TimeRatioNs(
          naive_iters, kernel_iters, [&] { sink = naive(); },
          [&] { sink = FastEcJoin(mm.method, av, bv, profile, a_mean,
                                  b_mean); },
          &naive_ns, &kernel_ns);
      (void)sink;
      double ratio = kernel_ns / naive_ns;
      std::printf("%-10s %-5zu %12.1f %12.1f %10.4f\n", mm.name, b,
                  naive_ns, kernel_ns, ratio);
      if (b == 27) {
        char metric[64];
        std::snprintf(metric, sizeof(metric), "fast_ec_%s_vs_naive_ratio_b27",
                      mm.name);
        EmitBudget(metric, ratio);
      }
    }
  }
  std::printf("\nratio = kernel/naive: O(b) sweep over O(b^3) enumeration, "
              "so it shrinks\nas b grows.\n");
}

// ---------------------------------------------------------------------------
// Size propagation: arena pipeline vs Distribution pipeline.
// ---------------------------------------------------------------------------

void BenchSizePropagation() {
  bench::Header("E18.2",
                "size propagation (product+rebucket): arena vs heap");
  std::printf("%-22s %12s %12s %10s\n", "pipeline", "heap ns", "kernel ns",
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
  double heap_ns, kernel_ns;
  TimeRatioNs(
      iters, iters,
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
      &heap_ns, &kernel_ns);
  (void)sink;
  double ratio = kernel_ns / heap_ns;
  std::printf("%-22s %12.1f %12.1f %10.3f\n", "join_size b=27", heap_ns,
              kernel_ns, ratio);
  EmitBudget("size_propagation_ratio_b27", ratio);
}

// ---------------------------------------------------------------------------
// DP work at n=10: exact counters of the unpruned RunDp.
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
  bench::Header("E18.3", "RunDp work on an n=10 chain (unpruned)");
  std::printf("%-14s %12s %12s %10s\n", "regime", "candidates", "cost evals",
              "us");
  bench::Rule();
  Workload w = ChainWorkload(10);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 27);
  OptimizerOptions opts;
  // Pruning off: these counters are the full enumeration. The pruning
  // axis is E20 (bench_dp_pruning).
  opts.dp_pruning = DpPruning::kOff;
  DpContext ctx(w.query, w.catalog, opts);
  LscCostProvider lsc{model, 800};
  LecStaticCostProvider lec{model, memory};

  auto bench_regime = [&](const char* name, const auto& provider) {
    OptimizeResult r = RunDp(ctx, provider);  // also warms the scratch
    volatile double sink = 0;
    double us = TimeNs(400, [&] { sink = RunDp(ctx, provider).objective; }) /
                1e3;
    (void)sink;
    std::printf("%-14s %12zu %12zu %10.1f\n", name, r.candidates_considered,
                r.cost_evaluations, us);
    char metric[64];
    std::snprintf(metric, sizeof(metric), "dp_%s_n10_candidates", name);
    EmitBudget(metric, static_cast<double>(r.candidates_considered));
    std::snprintf(metric, sizeof(metric), "dp_%s_n10_cost_evaluations", name);
    EmitBudget(metric, static_cast<double>(r.cost_evaluations));
  };
  bench_regime("lsc", lsc);
  bench_regime("lec_static", lec);
  std::printf("\nCounters are deterministic; wall time is printed, not "
              "gated.\n");
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
    std::printf("\n%d kernel/reference agreement failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
