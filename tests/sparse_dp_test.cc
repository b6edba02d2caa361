// The sparse live-subset DP table (optimizer/dp_common.h).
//
// Four properties are pinned here:
//   * At n = 19 and 20, pruning changes nothing but the work. (The
//     unpruned runs' objectives, plans and counters on these same queries
//     are pinned bit for bit by tests/golden/dp_counters.txt.)
//   * DpContext's on-demand SubsetPages and lazy MinSubsetPages equal a
//     brute-force 2^n reference bit for bit, on every generated shape.
//   * An n = 20 chain or cycle leaves at most 1 MiB of DP scratch behind,
//     and Algorithm D's size records and arena stay under 16 MiB there.
//   * ReleaseThreadLocalDpScratch frees Algorithm D's size records and
//     arena too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "cost/cost_policies.h"
#include "dist/arena.h"
#include "dist/builders.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/dp_common.h"
#include "query/generator.h"
#include "rewrite/rewrite.h"
#include "util/rng.h"

namespace lec {
namespace {

Workload Generate(JoinGraphShape shape, int n, uint64_t seed,
                  WorkloadOptions wopts = {}) {
  Rng rng(seed);
  wopts.num_tables = n;
  wopts.shape = shape;
  return GenerateWorkload(wopts, &rng);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ---------------------------------------------------------------------------
// Pruned vs unpruned at the largest sizes.
// ---------------------------------------------------------------------------

TEST(SparseDpParityTest, LargeQueriesPrunedMatchUnpruned) {
  struct Case {
    JoinGraphShape shape;
    int n;
    int extra_edges;
    double order_by;
  };
  const Case cases[] = {
      {JoinGraphShape::kChain, 19, 0, 1.0},
      {JoinGraphShape::kChain, 20, 0, 0.0},
      {JoinGraphShape::kCycle, 19, 0, 0.0},
      {JoinGraphShape::kCycle, 20, 0, 1.0},
      {JoinGraphShape::kRandom, 19, 4, 1.0},
  };
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 9);
  LecStaticCostProvider lec{model, memory};
  for (const Case& c : cases) {
    WorkloadOptions wopts;
    wopts.extra_edges = c.extra_edges;
    wopts.order_by_probability = c.order_by;
    Workload w = Generate(c.shape, c.n, 1900 + c.n, wopts);
    SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(c.shape)
                                    << " n " << c.n);
    OptimizerOptions off_opts;
    off_opts.dp_pruning = DpPruning::kOff;
    DpContext off_ctx(w.query, w.catalog, off_opts);
    OptimizeResult sparse = RunDp(off_ctx, lec);

    OptimizerOptions on_opts;
    on_opts.dp_pruning = DpPruning::kOn;
    DpContext on_ctx(w.query, w.catalog, on_opts);
    OptimizeResult pruned = RunDp(on_ctx, lec);
    EXPECT_EQ(Bits(pruned.objective), Bits(sparse.objective));
    EXPECT_TRUE(PlanEquals(pruned.plan, sparse.plan));
    EXPECT_LE(pruned.candidates_considered, sparse.candidates_considered);
  }
}

// ---------------------------------------------------------------------------
// Exactness of the lazy page counts.
// ---------------------------------------------------------------------------

/// SubsetPages written out from the query and catalog for every subset:
/// members ascending, then internal predicates ascending. Index 0 holds
/// the minimum over all nonempty subsets.
std::vector<double> BruteForcePages(const Query& query,
                                    const Catalog& catalog) {
  int n = query.num_tables();
  std::vector<double> table_pages;
  for (QueryPos p = 0; p < n; ++p) {
    table_pages.push_back(
        catalog.table(query.table(p)).SizeDistribution().Mean());
  }
  std::vector<double> selectivity;
  for (const JoinPredicate& pred : query.predicates()) {
    selectivity.push_back(pred.selectivity.Mean());
  }
  std::vector<double> pages(size_t{1} << n);
  double min = std::numeric_limits<double>::infinity();
  for (TableSet s = 1; s < pages.size(); ++s) {
    double v = 1.0;
    for (QueryPos p = 0; p < n; ++p) {
      if (s >> p & 1) v *= table_pages[p];
    }
    for (int i = 0; i < query.num_predicates(); ++i) {
      const JoinPredicate& pred = query.predicate(i);
      if ((s >> pred.left & 1) && (s >> pred.right & 1)) v *= selectivity[i];
    }
    pages[s] = v;
    min = std::min(min, v);
  }
  pages[0] = min;
  return pages;
}

void ExpectExactPages(const Query& query, const Catalog& catalog) {
  std::vector<double> want = BruteForcePages(query, catalog);
  OptimizerOptions opts;
  DpContext ctx(query, catalog, opts);
  double min = ctx.MinSubsetPages();
  EXPECT_EQ(std::memcmp(&min, &want[0], sizeof(double)), 0)
      << "MinSubsetPages " << min << " vs brute force " << want[0];
  for (TableSet s = 1; s < want.size(); ++s) {
    double got = ctx.SubsetPages(s);
    if (std::memcmp(&got, &want[s], sizeof(double)) != 0) {
      ADD_FAILURE() << "SubsetPages(" << s << ") " << got
                    << " vs brute force " << want[s];
      return;
    }
  }
}

TEST(SparseDpPagesTest, SingleTable) {
  Catalog catalog;
  catalog.AddTable("A", 37);
  Query q;
  q.AddTable(0);
  ExpectExactPages(q, catalog);
}

TEST(SparseDpPagesTest, LazyPagesMatchBruteForceOnEveryShape) {
  const JoinGraphShape shapes[] = {JoinGraphShape::kChain,
                                   JoinGraphShape::kStar,
                                   JoinGraphShape::kCycle,
                                   JoinGraphShape::kClique,
                                   JoinGraphShape::kRandom};
  rewrite::PassManager passes = rewrite::StandardPassManager();
  for (JoinGraphShape shape : shapes) {
    for (int n = 2; n <= 16; ++n) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << " n " << n);
      uint64_t seed = static_cast<uint64_t>(n) * 31 + static_cast<int>(shape);
      // Redundant parallel edges (and, for kRandom, extra edges), with
      // uncertain selectivities and table sizes.
      WorkloadOptions redundant;
      redundant.redundant_edge_probability = 0.5;
      redundant.selectivity_spread = 3;
      redundant.table_size_spread = 2;
      if (shape == JoinGraphShape::kRandom) redundant.extra_edges = n / 3;
      Workload w = Generate(shape, n, seed, redundant);
      ExpectExactPages(w.query, w.catalog);

      // A disconnected join graph.
      WorkloadOptions split;
      split.num_components = n >= 4 ? 3 : 2;
      Workload d = Generate(shape, n, seed + 1, split);
      ExpectExactPages(d.query, d.catalog);

      // Filters folded into the base tables by the rewrite pipeline.
      WorkloadOptions filtered;
      filtered.filter_probability = 0.7;
      filtered.redundant_edge_probability = 0.3;
      Workload f = Generate(shape, n, seed + 2, filtered);
      rewrite::RewriteOutcome out = passes.Run(f.query, f.catalog);
      ExpectExactPages(out.query, out.catalog);

      // Small tables and mild selectivities: many subsets within a few
      // ulps of each other, where a careless bound would skip the minimum.
      WorkloadOptions ties;
      ties.min_pages = 1;
      ties.max_pages = 4;
      ties.min_selectivity = 0.25;
      ties.max_selectivity = 1;
      Workload t = Generate(shape, n, seed + 3, ties);
      ExpectExactPages(t.query, t.catalog);
    }
  }
}

// ---------------------------------------------------------------------------
// Memory: what the scratch retains, and what the trim gives back.
// ---------------------------------------------------------------------------

TEST(SparseDpMemoryTest, TwentyTableChainAndCycleRetainUnderOneMiB) {
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 9);
  LecStaticCostProvider lec{model, memory};
  ReleaseThreadLocalDpScratch();  // measure these queries, not earlier ones
  for (JoinGraphShape shape : {JoinGraphShape::kChain,
                               JoinGraphShape::kCycle}) {
    Workload w = Generate(shape, 20, 2020);
    for (DpPruning pruning : {DpPruning::kAuto, DpPruning::kOff}) {
      OptimizerOptions opts;
      opts.dp_pruning = pruning;
      DpContext ctx(w.query, w.catalog, opts);
      OptimizeResult r = RunDp(ctx, lec);
      EXPECT_TRUE(r.plan != nullptr);
      EXPECT_LE(ThreadLocalDpScratch().RetainedBytes(), size_t{1} << 20)
          << "shape " << static_cast<int>(shape);
    }
  }
}

TEST(SparseDpMemoryTest, ReleaseFreesAlgorithmDSizeTables) {
  Workload w = Generate(JoinGraphShape::kChain, 8, 88);
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 9);
  OptimizerOptions opts;
  ReleaseThreadLocalDpScratch();
  ASSERT_EQ(ReleaseThreadLocalDpScratch(), 0u);
  OptimizeResult before =
      OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
  size_t dp_bytes = ThreadLocalDpScratch().RetainedBytes();
  EXPECT_GT(dp_bytes, 0u) << "Algorithm D runs on the shared DP scratch";
  // D's size records and its thread-local arena, which holds at least a
  // fresh arena's first block, go back with the DP scratch.
  size_t arena_bytes = DistArena().capacity_doubles() * sizeof(double);
  EXPECT_GT(ReleaseThreadLocalDpScratch(), dp_bytes + arena_bytes);
  EXPECT_EQ(ReleaseThreadLocalDpScratch(), 0u);
  // The next run re-grows and returns the same result.
  OptimizeResult after =
      OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
  EXPECT_EQ(Bits(after.objective), Bits(before.objective));
  EXPECT_TRUE(PlanEquals(after.plan, before.plan));
}

// D keeps size records only for the live subsets and the subsets their
// derivations pass through, so a 20-table chain or cycle no longer pays
// for all 2^20 subsets (that took ~0.9 GB of arena).
TEST(SparseDpMemoryTest, AlgorithmDTwentyTablesRetainUnderSixteenMiB) {
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 9);
  OptimizerOptions opts;
  WorkloadOptions spread;
  spread.selectivity_spread = 3.0;
  spread.table_size_spread = 2.0;
  for (JoinGraphShape shape : {JoinGraphShape::kChain,
                               JoinGraphShape::kCycle}) {
    Workload w = Generate(shape, 20, 2020, spread);
    ReleaseThreadLocalDpScratch();
    OptimizeResult before =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
    size_t dp_bytes = ThreadLocalDpScratch().RetainedBytes();
    // The release returns the size records plus the arena's whole
    // capacity, which bounds its high water from above.
    size_t released = ReleaseThreadLocalDpScratch();
    ASSERT_GE(released, dp_bytes);
    EXPECT_LE(released - dp_bytes, size_t{16} << 20)
        << "shape " << static_cast<int>(shape);
    EXPECT_EQ(ReleaseThreadLocalDpScratch(), 0u);
    // The next run re-grows and returns the same result.
    OptimizeResult after =
        OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts);
    EXPECT_EQ(Bits(after.objective), Bits(before.objective));
    EXPECT_TRUE(PlanEquals(after.plan, before.plan));
    EXPECT_EQ(after.candidates_considered, before.candidates_considered);
    EXPECT_EQ(after.cost_evaluations, before.cost_evaluations);
  }
}

}  // namespace
}  // namespace lec
