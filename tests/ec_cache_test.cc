// The expected-cost memo cache: hit/miss accounting, identity keyed on
// distribution content, and the bit-identical-objective guarantee on
// Algorithm D and the Algorithm A/B scoring walk.
#include "cost/ec_cache.h"

#include <gtest/gtest.h>

#include "cost/expected_cost.h"
#include "dist/builders.h"
#include "optimizer/algorithm_a.h"
#include "optimizer/algorithm_d.h"
#include "query/generator.h"
#include "verify/tolerance.h"

namespace lec {
namespace {

Workload MakeWorkload(uint64_t seed, int tables) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.num_tables = tables;
  wopts.shape = JoinGraphShape::kChain;
  wopts.order_by_probability = 1.0;
  wopts.selectivity_spread = 3.0;
  wopts.table_size_spread = 2.0;
  return GenerateWorkload(wopts, &rng);
}

TEST(DistributionContentHashTest, EqualContentHashesEqual) {
  Distribution a({{10, 0.5}, {20, 0.5}});
  Distribution b({{20, 0.5}, {10, 0.5}});  // same after normalization
  Distribution c({{10, 0.4}, {20, 0.6}});
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_NE(a.ContentHash(), c.ContentHash());
  // Copies share the content identity.
  Distribution d = a;
  EXPECT_EQ(d.ContentHash(), a.ContentHash());
}

TEST(EcCacheTest, CountsHitsAndMisses) {
  EcCache cache;
  Distribution left = UniformBuckets(100, 1000, 4);
  Distribution right = UniformBuckets(50, 500, 4);
  Distribution memory = UniformBuckets(20, 200, 4);
  int computes = 0;
  auto compute = [&]() {
    ++computes;
    return 42.0;
  };
  auto join_ec = [&](JoinMethod method, bool left_sorted) {
    return cache.JoinEcView(method, left_sorted, false, left.AsView(),
                            left.ContentHash(), right.AsView(),
                            right.ContentHash(), memory.AsView(),
                            memory.ContentHash(), compute);
  };
  EXPECT_EQ(join_ec(JoinMethod::kGraceHash, false), 42.0);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(computes, 1);
  // Same operands — served from cache, compute not called again.
  EXPECT_EQ(join_ec(JoinMethod::kGraceHash, false), 42.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(computes, 1);
  // Different method or flags — distinct entries.
  join_ec(JoinMethod::kNestedLoop, false);
  join_ec(JoinMethod::kGraceHash, true);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups(), 0u);
}

TEST(EcCacheTest, FixedSizeAndSortVariants) {
  EcCache cache;
  Distribution memory = UniformBuckets(20, 200, 4);
  int computes = 0;
  auto compute = [&]() {
    ++computes;
    return 7.0;
  };
  cache.JoinEcFixedSizes(JoinMethod::kSortMerge, false, false, 1000, 400,
                         memory, compute);
  cache.JoinEcFixedSizes(JoinMethod::kSortMerge, false, false, 1000, 400,
                         memory, compute);
  EXPECT_EQ(computes, 1);
  // A different page count is a different key.
  cache.JoinEcFixedSizes(JoinMethod::kSortMerge, false, false, 1000, 401,
                         memory, compute);
  EXPECT_EQ(computes, 2);
  cache.SortEcFixedSize(1000, memory, compute);
  cache.SortEcFixedSize(1000, memory, compute);
  EXPECT_EQ(computes, 3);
  Distribution pages = UniformBuckets(100, 1000, 3);
  for (int i = 0; i < 2; ++i) {
    cache.SortEcView(pages.AsView(), pages.ContentHash(), memory.AsView(),
                     memory.ContentHash(), compute);
  }
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(EcCacheTest, AlgorithmDCachedMatchesUncachedBitIdentical) {
  CostModel model;
  Distribution memory = UniformBuckets(50, 2000, 5);
  for (uint64_t seed : {11u, 12u, 13u}) {
    Workload w = MakeWorkload(seed, 5);
    OptimizerOptions plain;
    OptimizeResult uncached =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, plain);

    EcCache cache;
    OptimizerOptions with_cache;
    with_cache.ec_cache = &cache;
    OptimizeResult cached =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, with_cache);

    EXPECT_EQ(cached.objective, uncached.objective);  // bit-identical
    EXPECT_TRUE(PlanEquals(cached.plan, uncached.plan));
    EXPECT_EQ(cached.candidates_considered, uncached.candidates_considered);
    // D looks the cache up once per distinct (subset, relation, method,
    // sorted flags) step, not once per candidate, and with a cache its
    // repeats are charged no formula work, so fewer evaluations count.
    EXPECT_LT(cache.stats().lookups(), cached.candidates_considered);
    EXPECT_LT(cached.cost_evaluations, uncached.cost_evaluations);

    // A second run against the warm cache is all hits, no new entries.
    size_t entries = cache.size();
    size_t misses = cache.stats().misses;
    OptimizeResult warm =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, with_cache);
    EXPECT_EQ(warm.objective, uncached.objective);
    EXPECT_EQ(cache.size(), entries);
    EXPECT_EQ(cache.stats().misses, misses);
    EXPECT_EQ(warm.cost_evaluations, 0u);
  }
}

TEST(EcCacheTest, AlgorithmACachedScoringPicksSamePlan) {
  CostModel model;
  Distribution memory = UniformBuckets(50, 2000, 6);
  Workload w = MakeWorkload(21, 5);
  OptimizerOptions plain;
  OptimizeResult uncached =
      OptimizeAlgorithmA(w.query, w.catalog, model, memory, plain);
  EcCache cache;
  OptimizerOptions with_cache;
  with_cache.ec_cache = &cache;
  OptimizeResult cached =
      OptimizeAlgorithmA(w.query, w.catalog, model, memory, with_cache);
  EXPECT_TRUE(PlanEquals(cached.plan, uncached.plan));
  // The cached scoring walk sums per-operator ECs — same value up to FP
  // association order, never bit-identical by contract; the tolerance is
  // the documented one from verify/tolerance.h.
  EXPECT_LE(verify::RelativeError(cached.objective, uncached.objective),
            verify::kSummationReassociationRelTol);
}

TEST(EcCacheTest, CachedPlanScoreMatchesUncachedWalk) {
  CostModel model;
  Distribution memory = UniformBuckets(50, 2000, 6);
  Workload w = MakeWorkload(31, 4);
  OptimizeResult r =
      OptimizeAlgorithmA(w.query, w.catalog, model, memory, {});
  double plain =
      PlanExpectedCostStatic(r.plan, w.query, w.catalog, model, memory);
  EcCache cache;
  double cached = PlanExpectedCostStaticCached(r.plan, w.query, w.catalog,
                                               model, memory, &cache);
  EXPECT_LE(verify::RelativeError(cached, plain),
            verify::kSummationReassociationRelTol);
  // Re-scoring the same plan is served entirely from the cache.
  size_t misses = cache.stats().misses;
  double again = PlanExpectedCostStaticCached(r.plan, w.query, w.catalog,
                                              model, memory, &cache);
  EXPECT_EQ(again, cached);
  EXPECT_EQ(cache.stats().misses, misses);
}

}  // namespace
}  // namespace lec
