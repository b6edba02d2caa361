// Allocation accounting for the arena-backed DP hot path.
//
// Three properties are pinned here:
//   * DistArena semantics: bump allocation, Reset rewind, high-water-mark
//     tracking, and graceful regrow on exhaustion (with the one-time
//     coalesce on the following Reset).
//   * The tentpole claim of PR 4: a warmed RunDpInto performs ZERO heap
//     allocations — enforced with a counting global operator new, not a
//     proxy metric.
//   * Algorithm D's kernel pipeline reaches arena steady state: after the
//     first optimization on a workload shape, repeat runs never grow the
//     injected arena (heap_allocations() stops moving).
//   * The same zero-allocation property on 10-table stars, the densest
//     n = 10 DP: with lec_static's branch-and-bound engaged, and with
//     Algorithm D's provider driving the same core.
#include "dist/arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cost/cost_policies.h"
#include "dist/builders.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/dp_common.h"
#include "query/generator.h"

// ---------------------------------------------------------------------------
// Counting allocator: every path into the heap ticks g_news. Deltas across
// a code region measure its allocation count exactly (single-threaded
// tests; gtest's own bookkeeping between regions does not interfere).
// ---------------------------------------------------------------------------

namespace {

std::atomic<size_t> g_news{0};

void* CountedAlloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lec {
namespace {

TEST(DistArenaTest, BumpAllocationAndReset) {
  DistArena arena(128);
  size_t base_allocs = arena.heap_allocations();
  double* a = arena.AllocDoubles(10);
  double* b = arena.AllocDoubles(20);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  a[0] = 1.0;
  b[19] = 2.0;
  EXPECT_EQ(arena.used_doubles(), 30u);
  EXPECT_EQ(arena.heap_allocations(), base_allocs);  // fits the first block

  arena.Reset();
  EXPECT_EQ(arena.used_doubles(), 0u);
  EXPECT_EQ(arena.heap_allocations(), base_allocs);  // Reset frees nothing
  // Post-reset allocations reuse the same storage.
  double* c = arena.AllocDoubles(10);
  EXPECT_EQ(c, a);
}

TEST(DistArenaTest, HighWaterMarkSurvivesReset) {
  DistArena arena(128);
  arena.AllocDoubles(10);
  arena.AllocDoubles(20);
  EXPECT_EQ(arena.high_water_doubles(), 30u);
  arena.Reset();
  arena.AllocDoubles(5);
  EXPECT_EQ(arena.used_doubles(), 5u);
  EXPECT_EQ(arena.high_water_doubles(), 30u);  // the mark is lifetime-max
}

TEST(DistArenaTest, ExhaustionRegrowsGracefullyThenCoalesces) {
  DistArena arena(64);
  size_t initial_allocs = arena.heap_allocations();
  // Exhaust the first block: growth must be transparent to the caller.
  double* big = arena.AllocDoubles(1000);
  ASSERT_NE(big, nullptr);
  big[999] = 42.0;
  EXPECT_GT(arena.heap_allocations(), initial_allocs);
  EXPECT_GE(arena.capacity_doubles(), 1064u);

  // The next Reset coalesces to the high-water mark (one allocation). A
  // first full round of the real workload may still grow once more — the
  // HWM at the first coalesce predates the workload's true peak — and the
  // following Reset re-coalesces.
  arena.Reset();
  arena.AllocDoubles(1000);
  arena.AllocDoubles(60);
  arena.Reset();
  size_t after_warm = arena.heap_allocations();
  EXPECT_EQ(arena.capacity_doubles(), arena.high_water_doubles());
  // From here the same workload is steady-state: no heap traffic, ever.
  for (int round = 0; round < 3; ++round) {
    arena.AllocDoubles(1000);
    arena.AllocDoubles(60);
    arena.Reset();
  }
  EXPECT_EQ(arena.heap_allocations(), after_warm);
}

TEST(DistArenaTest, ZeroSizedAllocationIsValid) {
  DistArena arena(64);
  double* p = arena.AllocDoubles(0);
  double* q = arena.AllocDoubles(0);
  EXPECT_NE(p, nullptr);
  EXPECT_NE(p, q);  // distinct live objects
}

// ---------------------------------------------------------------------------
// The tentpole property: zero steady-state heap allocations in the DP core.
// ---------------------------------------------------------------------------

Workload ChainWorkload(int n) {
  Rng rng(20260729);
  WorkloadOptions wopts;
  wopts.num_tables = n;
  wopts.shape = JoinGraphShape::kChain;
  return GenerateWorkload(wopts, &rng);
}

TEST(DpAllocationTest, WarmRunDpIntoAllocatesNothing) {
  Workload w = ChainWorkload(10);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 27);
  OptimizerOptions opts;
  DpContext ctx(w.query, w.catalog, opts);
  LecStaticCostProvider lec{model, memory};
  LscCostProvider lsc{model, 800};

  DpScratch scratch;
  OptimizeResult result;
  RunDpInto(ctx, lec, &scratch, &result);  // warm-up sizes the scratch
  RunDpInto(ctx, lsc, &scratch, &result);
  double warm_objective = result.objective;

  size_t before = g_news.load();
  for (int round = 0; round < 5; ++round) {
    RunDpInto(ctx, lec, &scratch, &result);
    RunDpInto(ctx, lsc, &scratch, &result);
  }
  size_t allocations = g_news.load() - before;
  EXPECT_EQ(allocations, 0u)
      << "the warmed DP core must not touch the heap";
  EXPECT_EQ(result.objective, warm_objective);  // and stays deterministic

  // The core's numbers are the ones RunDp materializes; with pruning off
  // they are pinned bit for bit by tests/golden/dp_counters.txt (case
  // chain10).
  OptimizerOptions off_opts;
  off_opts.dp_pruning = DpPruning::kOff;
  DpContext off_ctx(w.query, w.catalog, off_opts);
  OptimizeResult unpruned = RunDp(off_ctx, lec);

  // The measured loop above ran with pruning engaged (kAuto defaults on
  // for this provider), so the zero-allocation property covers the
  // branch-and-bound path: incumbent, floors and all. The pruned result
  // must still be bit-identical — only cheaper.
  OptimizeResult pruned = RunDp(ctx, lec);
  EXPECT_EQ(pruned.objective, unpruned.objective);
  EXPECT_TRUE(PlanEquals(pruned.plan, unpruned.plan));
  EXPECT_LE(pruned.candidates_considered, unpruned.candidates_considered);
  EXPECT_GT(pruned.pruned_expansions + pruned.pruned_candidates +
                pruned.pruned_entries,
            0u)
      << "a 10-table chain should give the bound something to cut";
}

TEST(DpAllocationTest, WarmTwentyTableChainAllocatesNothing) {
  // The sparse table serves n = 20 on the same zero-allocation contract as
  // every smaller query.
  Workload w = ChainWorkload(20);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 27);
  OptimizerOptions opts;
  DpContext ctx(w.query, w.catalog, opts);
  LecStaticCostProvider lec{model, memory};

  DpScratch scratch;
  OptimizeResult result;
  RunDpInto(ctx, lec, &scratch, &result);  // warm-up sizes the scratch
  double warm_objective = result.objective;

  size_t before = g_news.load();
  for (int round = 0; round < 3; ++round) {
    RunDpInto(ctx, lec, &scratch, &result);
  }
  EXPECT_EQ(g_news.load() - before, 0u)
      << "the warmed n = 20 DP core must not touch the heap";
  EXPECT_EQ(result.objective, warm_objective);
}

/// A 10-table star with spread table sizes and selectivities: every
/// subset holding the hub is live, so each (S_j, j) pair has many left
/// entries and keys sharing one step context.
Workload StarWorkload() {
  Rng rng(20261019);
  WorkloadOptions wopts;
  wopts.num_tables = 10;
  wopts.shape = JoinGraphShape::kStar;
  wopts.table_size_spread = 2.0;
  wopts.selectivity_spread = 3.0;
  wopts.order_by_probability = 1.0;
  return GenerateWorkload(wopts, &rng);
}

TEST(DpAllocationTest, WarmStarAllocatesNothingWithPruning) {
  Workload w = StarWorkload();
  CostModelOptions mo;
  mo.sorted_input_discount = true;
  CostModel model(mo);
  Distribution memory = UniformBuckets(50, 5000, 27);
  OptimizerOptions opts;
  opts.consider_sort_enforcers = true;  // every step-memo slot in use
  DpContext ctx(w.query, w.catalog, opts);
  LecStaticCostProvider lec{model, memory};

  DpScratch scratch;
  OptimizeResult result;
  RunDpInto(ctx, lec, &scratch, &result);  // warm-up sizes the scratch
  double warm_objective = result.objective;
  ASSERT_GT(result.pruned_expansions + result.pruned_candidates +
                result.pruned_entries,
            0u)
      << "pruning (kAuto for lec_static) must be engaged";

  size_t before = g_news.load();
  for (int round = 0; round < 3; ++round) {
    RunDpInto(ctx, lec, &scratch, &result);
  }
  EXPECT_EQ(g_news.load() - before, 0u)
      << "the warmed star DP must not touch the heap";
  EXPECT_EQ(result.objective, warm_objective);
}

TEST(DpAllocationTest, WarmAlgorithmDStarAllocatesNothing) {
  // Algorithm D on the shared core: its provider's per-run setup (arena
  // reset, size records, operand memo, memory profile) and the DP itself.
  Workload w = StarWorkload();
  CostModel model;
  Distribution memory({{128, 0.3}, {512, 0.4}, {2048, 0.3}});
  OptimizerOptions opts;
  DpContext ctx(w.query, w.catalog, opts);
  OptimizeResult want =
      OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);

  DpScratch scratch;
  OptimizeResult result;
  // Two warm-up runs: the second Reset coalesces the arena's blocks.
  for (int round = 0; round < 2; ++round) {
    AlgorithmDSteps steps(ctx, model, memory);
    RunDpInto(ctx, steps, &scratch, &result);
  }

  size_t before = g_news.load();
  for (int round = 0; round < 3; ++round) {
    AlgorithmDSteps steps(ctx, model, memory);
    RunDpInto(ctx, steps, &scratch, &result);
  }
  EXPECT_EQ(g_news.load() - before, 0u)
      << "a warmed Algorithm D run must not touch the heap";
  EXPECT_EQ(result.objective, want.objective);
  EXPECT_EQ(result.cost_evaluations, want.cost_evaluations);
  EXPECT_EQ(result.candidates_considered, want.candidates_considered);
}

TEST(DpAllocationTest, WarmPredicateLookupsIntoAllocateNothing) {
  // The *Into predicate lookups share the DP core's contract: after one
  // warming pass sizes the scratch vector, repeat calls never touch the
  // heap — they only clear and refill the caller's buffer.
  Workload w = ChainWorkload(10);
  const Query& q = w.query;
  TableSet all = q.AllTables();
  TableSet left = 0b11111;  // first five tables of the 10-table chain
  TableSet right = all & ~left;

  std::vector<int> crossing, internal;
  q.CrossingPredicatesInto(left, right, &crossing);  // warm-up sizes it
  q.InternalPredicatesInto(all, &internal);
  std::vector<int> want_crossing = q.CrossingPredicates(left, right);
  std::vector<int> want_internal = q.InternalPredicates(all);

  size_t before = g_news.load();
  for (int round = 0; round < 8; ++round) {
    q.CrossingPredicatesInto(left, right, &crossing);
    q.InternalPredicatesInto(all, &internal);
  }
  EXPECT_EQ(g_news.load() - before, 0u)
      << "warmed *Into lookups must not touch the heap";
  EXPECT_EQ(crossing, want_crossing);  // and match the allocating variants
  EXPECT_EQ(internal, want_internal);
}

TEST(DpAllocationTest, AlgorithmDArenaReachesSteadyState) {
  Workload w = ChainWorkload(6);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 9);
  DistArena arena;
  OptimizerOptions opts;
  opts.dist_arena = &arena;

  OptimizeResult warm =
      OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
  size_t allocs_after_warm = arena.heap_allocations();
  size_t hwm_after_warm = arena.high_water_doubles();
  // One more run may coalesce (if the warm-up grew past the first block);
  // from then on the arena must be silent.
  OptimizeResult second =
      OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
  size_t allocs_steady = arena.heap_allocations();
  EXPECT_LE(allocs_steady, allocs_after_warm + 1);
  for (int round = 0; round < 3; ++round) {
    OptimizeResult again =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
    EXPECT_EQ(again.objective, warm.objective);  // bit-stable across reuse
  }
  EXPECT_EQ(arena.heap_allocations(), allocs_steady);
  EXPECT_EQ(arena.high_water_doubles(), hwm_after_warm);
  EXPECT_EQ(second.objective, warm.objective);
}

}  // namespace
}  // namespace lec
