// End-to-end integration tests: optimizer family x simulators x engine.
#include <gtest/gtest.h>

#include "cost/expected_cost.h"
#include "dist/builders.h"
#include "exec/analytic_simulator.h"
#include "exec/engine_simulator.h"
#include "exec/plan_executor.h"
#include "optimizer/algorithm_a.h"
#include "optimizer/algorithm_b.h"
#include "optimizer/algorithm_c.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/exhaustive.h"
#include "optimizer/system_r.h"
#include "plan/printer.h"
#include "query/generator.h"

namespace lec {
namespace {

// The complete Example 1.1 pipeline: optimize, verify plan shapes, verify
// expected costs, then confirm by Monte-Carlo simulation.
TEST(IntegrationTest, Example11EndToEnd) {
  Catalog catalog;
  catalog.AddTable("A", 1'000'000);
  catalog.AddTable("B", 400'000);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddPredicate(0, 1, 3000.0 / (1e6 * 4e5));
  q.RequireOrder(0);
  CostModel model;
  Distribution memory = Distribution::TwoPoint(2000, 0.8, 700, 0.2);

  OptimizeResult lsc_mode = OptimizeLscAtEstimate(q, catalog, model, memory,
                                                  PointEstimate::kMode);
  OptimizeResult lsc_mean = OptimizeLscAtEstimate(q, catalog, model, memory,
                                                  PointEstimate::kMean);
  OptimizeResult lec = OptimizeLecStatic(q, catalog, model, memory);

  // "In either case, the plan chosen would be Plan 1" (sort-merge; the
  // SM cost is symmetric in A/B so either join order may be reported).
  ASSERT_EQ(lsc_mode.plan->kind, PlanNode::Kind::kJoin);
  EXPECT_EQ(lsc_mode.plan->method, JoinMethod::kSortMerge);
  ASSERT_EQ(lsc_mean.plan->kind, PlanNode::Kind::kJoin);
  EXPECT_EQ(lsc_mean.plan->method, JoinMethod::kSortMerge);
  // "However, we claim that Plan 2 is likely to be cheaper on average."
  ASSERT_EQ(lec.plan->kind, PlanNode::Kind::kSort);
  EXPECT_EQ(lec.plan->left->method, JoinMethod::kGraceHash);

  double lsc_ec =
      PlanExpectedCostStatic(lsc_mode.plan, q, catalog, model, memory);
  EXPECT_GT(lsc_ec / lec.objective, 1.12);  // ~13% cheaper incl. scans

  EnvironmentModel env;
  env.memory = memory;
  Rng rng(42);
  std::vector<MonteCarloResult> sim = SimulatePlansPaired(
      {lsc_mode.plan, lec.plan}, q, catalog, model, env, 3000, &rng);
  EXPECT_LT(sim[1].mean, sim[0].mean);
}

// All five optimizers agree when there is no uncertainty at all.
TEST(IntegrationTest, AllOptimizersAgreeUnderCertainty) {
  Rng rng(11);
  WorkloadOptions wopts;
  wopts.num_tables = 5;
  wopts.shape = JoinGraphShape::kStar;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution point = Distribution::PointMass(600);
  double lsc = OptimizeLsc(w.query, w.catalog, model, 600).objective;
  double a =
      OptimizeAlgorithmA(w.query, w.catalog, model, point).objective;
  double b =
      OptimizeAlgorithmB(w.query, w.catalog, model, point, 4).objective;
  double c = OptimizeLecStatic(w.query, w.catalog, model, point).objective;
  double d = OptimizeAlgorithmD(w.query, w.catalog, model, point).objective;
  EXPECT_NEAR(a, lsc, 1e-9 * lsc);
  EXPECT_NEAR(b, lsc, 1e-9 * lsc);
  EXPECT_NEAR(c, lsc, 1e-9 * lsc);
  EXPECT_NEAR(d, lsc, 1e-9 * lsc);
}

// The quality ladder (A >= B >= C in expected cost) across many seeds.
class QualityLadderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QualityLadderTest, AGeqBGeqC) {
  Rng rng(GetParam());
  WorkloadOptions wopts;
  wopts.num_tables = static_cast<int>(3 + GetParam() % 4);
  wopts.shape = static_cast<JoinGraphShape>(GetParam() % 5);
  wopts.order_by_probability = 0.4;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory({{15, 0.2}, {150, 0.3}, {1500, 0.3}, {15000, 0.2}});
  double a =
      OptimizeAlgorithmA(w.query, w.catalog, model, memory).objective;
  double b =
      OptimizeAlgorithmB(w.query, w.catalog, model, memory, 4).objective;
  double c = OptimizeLecStatic(w.query, w.catalog, model, memory).objective;
  EXPECT_LE(c, b + 1e-9 * b);
  EXPECT_LE(b, a + 1e-9 * a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityLadderTest,
                         ::testing::Range<uint64_t>(500, 525));

// Engine-level end-to-end: on a scaled Example 1.1 the LEC plan's
// *measured* page I/O on the storage engine beats the LSC plan's, averaged
// over sampled memory states.
TEST(IntegrationTest, LecBeatsLscOnRealEngine) {
  // Scale: A = 1000, B = 400 pages. sqrt(A) ~ 31.6, sqrt(B) = 20.
  // Memory: 45 pages (ample) 80% / 22 pages (between sqrt(B) and sqrt(A))
  // 20% — the same regime structure as the paper's example.
  Catalog catalog;
  catalog.AddTable("A", 1000);
  catalog.AddTable("B", 400);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  // Selectivity gives an 80-page result: too big to sort for free, so the
  // ORDER BY genuinely separates Plan 1 (SM, pre-sorted) from Plan 2.
  q.AddPredicate(0, 1, 2e-4);
  q.RequireOrder(0);
  CostModel model;
  Distribution memory = Distribution::TwoPoint(45, 0.8, 22, 0.2);

  OptimizeResult lsc = OptimizeLscAtEstimate(q, catalog, model, memory,
                                             PointEstimate::kMode);
  OptimizeResult lec = OptimizeLecStatic(q, catalog, model, memory);
  ASSERT_FALSE(PlanEquals(lsc.plan, lec.plan));

  Rng rng(77);
  EngineWorkload data = BuildChainEngineWorkload(q, catalog, &rng);
  auto measure = [&](const PlanPtr& plan) {
    double total = 0;
    ExecutePlanOptions options;
    for (const Bucket& m : memory.buckets()) {
      options.memory_by_phase = {m.value};
      ExecutionResult r = ExecutePlan(plan, q, data, options);
      total += m.prob * static_cast<double>(r.total_io());
    }
    return total;
  };
  double lsc_io = measure(lsc.plan);
  double lec_io = measure(lec.plan);
  EXPECT_LT(lec_io, lsc_io);
}

// Algorithm D hedges against selectivity uncertainty end-to-end: its plan's
// Monte-Carlo average (sampling selectivities) beats the mean-based plan's.
TEST(IntegrationTest, AlgorithmDHedgesSelectivityRisk) {
  Catalog catalog;
  catalog.AddTable("A", 2000);
  Table b;
  b.name = "B";
  b.pages = 100;
  b.pages_dist = Distribution::TwoPoint(40, 0.75, 280, 0.25);
  catalog.AddTable(std::move(b));
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddPredicate(0, 1, 1e-4);
  CostModel model;
  Distribution memory = Distribution::PointMass(150);
  OptimizeResult mean_based = OptimizeLecStatic(q, catalog, model, memory);
  OptimizeResult d = OptimizeAlgorithmD(q, catalog, model, memory);
  EnvironmentModel env;
  env.memory = memory;
  env.sample_data_parameters = true;
  Rng rng(99);
  std::vector<MonteCarloResult> sim = SimulatePlansPaired(
      {mean_based.plan, d.plan}, q, catalog, model, env, 4000, &rng);
  EXPECT_LT(sim[1].mean, sim[0].mean);
}

// Interesting-orders extension: with the sorted-input discount enabled and
// enforcers allowed, the DP still matches the exhaustive oracle (the
// paper's footnote-1 claim that its solutions survive such extensions).
class InterestingOrdersTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterestingOrdersTest, DpMatchesOracleWithDiscount) {
  Rng rng(GetParam());
  WorkloadOptions wopts;
  wopts.num_tables = 4;
  wopts.shape = GetParam() % 2 ? JoinGraphShape::kChain
                               : JoinGraphShape::kStar;
  wopts.order_by_probability = 0.6;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModelOptions mopts;
  mopts.sorted_input_discount = true;
  CostModel model(mopts);
  OptimizerOptions opts;
  opts.consider_sort_enforcers = true;
  Distribution memory({{35, 0.5}, {700, 0.5}});
  OptimizeResult dp =
      OptimizeLecStatic(w.query, w.catalog, model, memory, opts);
  OptimizeResult oracle = ExhaustiveBest(
      w.query, w.catalog, opts, [&](const PlanPtr& p) {
        return PlanExpectedCostStatic(p, w.query, w.catalog, model, memory);
      });
  EXPECT_NEAR(dp.objective, oracle.objective,
              1e-9 * std::max(1.0, oracle.objective));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterestingOrdersTest,
                         ::testing::Range<uint64_t>(600, 610));

// Optimization-cost accounting (Theorem 3.3 units): with pruning off,
// Algorithm C examines exactly System R's candidates and runs exactly as
// many cost evaluations, each of which covers b formula calls — so its
// formula calls are exactly b x System R's.
TEST(IntegrationTest, AlgorithmCCostScalesWithBuckets) {
  // Pruning off: the Theorem 3.2/3.3 accounting is about the full
  // enumeration, and the branch-and-bound skips different candidates per
  // costing regime (and per memory distribution).
  OptimizerOptions opts;
  opts.dp_pruning = DpPruning::kOff;
  CostModel model;
  for (JoinGraphShape shape : {JoinGraphShape::kClique, JoinGraphShape::kChain,
                               JoinGraphShape::kStar}) {
    for (int n : {4, 6, 8}) {
      Rng rng(12);
      WorkloadOptions wopts;
      wopts.num_tables = n;
      wopts.shape = shape;
      wopts.order_by_probability = 1.0;
      Workload w = GenerateWorkload(wopts, &rng);
      OptimizeResult lsc = OptimizeLsc(w.query, w.catalog, model, 500, opts);
      for (size_t b : {1u, 2u, 8u, 32u}) {
        Distribution memory = UniformBuckets(10, 10000, b);
        OptimizeResult lec =
            OptimizeLecStatic(w.query, w.catalog, model, memory, opts);
        EXPECT_EQ(lec.candidates_considered, lsc.candidates_considered)
            << "shape=" << static_cast<int>(shape) << " n=" << n
            << " b=" << b;
        EXPECT_EQ(lec.cost_evaluations, lsc.cost_evaluations)
            << "shape=" << static_cast<int>(shape) << " n=" << n
            << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace lec
