#include "optimizer/randomized.h"

#include <gtest/gtest.h>

#include "cost/expected_cost.h"
#include "dist/builders.h"
#include "optimizer/algorithm_c.h"
#include "query/generator.h"

namespace lec {
namespace {

Distribution TestMemory() {
  return Distribution({{20, 0.25}, {200, 0.25}, {2000, 0.25},
                       {20000, 0.25}});
}

TEST(EvaluateJoinOrderTest, MatchesDpForItsOwnOrder) {
  // Evaluating the DP's chosen permutation must reproduce the DP objective
  // and the independent plan costing — also with the sorted-input discount
  // and sort enforcers, which add the inner-sorted alternative.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    WorkloadOptions wopts;
    wopts.num_tables = 5;
    wopts.shape = static_cast<JoinGraphShape>(seed % 5);
    wopts.order_by_probability = 1.0;
    Workload w = GenerateWorkload(wopts, &rng);
    for (bool enforcers : {false, true}) {
      CostModelOptions mo;
      mo.sorted_input_discount = enforcers;
      CostModel model(mo);
      OptimizerOptions opts;
      opts.consider_sort_enforcers = enforcers;
      Distribution memory = TestMemory();
      OptimizeResult dp =
          OptimizeLecStatic(w.query, w.catalog, model, memory, opts);
      OptimizeResult eval = EvaluateJoinOrder(
          w.query, w.catalog, model, memory, JoinOrder(dp.plan), opts);
      EXPECT_NEAR(eval.objective, dp.objective, 1e-9 * dp.objective)
          << "seed=" << seed << " enforcers=" << enforcers;
      EXPECT_NEAR(eval.objective,
                  PlanExpectedCostStatic(eval.plan, w.query, w.catalog,
                                         model, memory),
                  1e-9 * eval.objective)
          << "seed=" << seed << " enforcers=" << enforcers;
    }
  }
}

TEST(EvaluateJoinOrderTest, ObjectiveMatchesIndependentPlanCosting) {
  Rng rng(2);
  WorkloadOptions wopts;
  wopts.num_tables = 4;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory = TestMemory();
  std::vector<QueryPos> order = RandomConnectedOrder(w.query, &rng, {});
  OptimizeResult r =
      EvaluateJoinOrder(w.query, w.catalog, model, memory, order);
  EXPECT_NEAR(r.objective,
              PlanExpectedCostStatic(r.plan, w.query, w.catalog, model,
                                     memory),
              1e-9 * r.objective);
  EXPECT_EQ(JoinOrder(r.plan), order);
}

TEST(EvaluateJoinOrderTest, RejectsCrossProductOrders) {
  // Chain 0-1-2: order {0, 2, 1} puts 0 and 2 together first.
  Catalog catalog;
  catalog.AddTable("A", 100);
  catalog.AddTable("B", 100);
  catalog.AddTable("C", 100);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 1, 0.01);
  q.AddPredicate(1, 2, 0.01);
  CostModel model;
  EXPECT_THROW(
      EvaluateJoinOrder(q, catalog, model, TestMemory(), {0, 2, 1}),
      std::invalid_argument);
  OptimizerOptions allow;
  allow.avoid_cross_products = false;
  EXPECT_NO_THROW(
      EvaluateJoinOrder(q, catalog, model, TestMemory(), {0, 2, 1}, allow));
  EXPECT_THROW(EvaluateJoinOrder(q, catalog, model, TestMemory(), {0, 1}),
               std::invalid_argument);
  // Every relation exactly once: a repeat is not a join order.
  EXPECT_THROW(
      EvaluateJoinOrder(q, catalog, model, TestMemory(), {0, 1, 1}, allow),
      std::invalid_argument);
}

TEST(RandomConnectedOrderTest, AlwaysConnectedPrefixes) {
  Rng rng(3);
  WorkloadOptions wopts;
  wopts.num_tables = 8;
  wopts.shape = JoinGraphShape::kChain;
  Workload w = GenerateWorkload(wopts, &rng);
  OptimizerOptions opts;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<QueryPos> order =
        RandomConnectedOrder(w.query, &rng, opts);
    ASSERT_EQ(order.size(), 8u);
    TableSet covered = TableSet{1} << order[0];
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_FALSE(
          w.query.ConnectingPredicates(covered, order[i]).empty())
          << "disconnected prefix at step " << i;
      covered |= TableSet{1} << order[i];
    }
    EXPECT_EQ(covered, w.query.AllTables());
  }
}

// On DP-tractable sizes the randomized search should find the true LEC
// optimum in nearly every seeded run.
class RandomizedQualityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedQualityTest, FindsDpOptimumOnSmallQueries) {
  Rng rng(GetParam());
  WorkloadOptions wopts;
  wopts.num_tables = static_cast<int>(4 + GetParam() % 3);
  wopts.shape = static_cast<JoinGraphShape>(GetParam() % 5);
  wopts.order_by_probability = 0.5;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory = TestMemory();
  OptimizeResult dp = OptimizeLecStatic(w.query, w.catalog, model, memory);
  RandomizedOptions ropts;
  ropts.restarts = 12;
  Rng search_rng(GetParam() * 13 + 1);
  OptimizeResult rnd = OptimizeRandomizedLec(w.query, w.catalog, model,
                                             memory, &search_rng, ropts);
  // Never better than the optimum; with this budget, also never worse.
  EXPECT_GE(rnd.objective, dp.objective * (1 - 1e-9));
  EXPECT_NEAR(rnd.objective, dp.objective, 1e-6 * dp.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedQualityTest,
                         ::testing::Range<uint64_t>(800, 815));

TEST(RandomizedTest, ScalesBeyondDpComfort) {
  // 14-way chain: 2^14 DP states are still feasible but the randomized
  // search must return a valid connected plan quickly.
  Rng rng(9);
  WorkloadOptions wopts;
  wopts.num_tables = 14;
  wopts.shape = JoinGraphShape::kChain;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory = TestMemory();
  RandomizedOptions ropts;
  ropts.restarts = 3;
  Rng search_rng(10);
  OptimizeResult r = OptimizeRandomizedLec(w.query, w.catalog, model,
                                           memory, &search_rng, ropts);
  EXPECT_TRUE(r.plan != nullptr);
  EXPECT_EQ(r.plan->tables, w.query.AllTables());
  EXPECT_TRUE(std::isfinite(r.objective));
  EXPECT_NEAR(r.objective,
              PlanExpectedCostStatic(r.plan, w.query, w.catalog, model,
                                     memory),
              1e-9 * r.objective);
}

TEST(RandomizedTest, SearchesJoinsWiderThanTheDp) {
  // The search exists for joins the DP refuses (DpContext stops at 20
  // relations); it must still return a complete, correctly costed plan.
  Rng rng(11);
  WorkloadOptions wopts;
  wopts.num_tables = 24;
  wopts.shape = JoinGraphShape::kChain;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory = TestMemory();
  EXPECT_THROW(DpContext(w.query, w.catalog, OptimizerOptions{}),
               std::invalid_argument);
  RandomizedOptions ropts;
  ropts.restarts = 1;
  ropts.patience = 1;
  Rng search_rng(12);
  OptimizeResult r = OptimizeRandomizedLec(w.query, w.catalog, model,
                                           memory, &search_rng, ropts);
  ASSERT_TRUE(r.plan != nullptr);
  EXPECT_EQ(r.plan->tables, w.query.AllTables());
  EXPECT_NEAR(r.objective,
              PlanExpectedCostStatic(r.plan, w.query, w.catalog, model,
                                     memory),
              1e-9 * r.objective);
}

TEST(RandomizedTest, DeterministicGivenRngSeed) {
  Rng rng(5);
  WorkloadOptions wopts;
  wopts.num_tables = 6;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory = TestMemory();
  Rng s1(77), s2(77);
  OptimizeResult r1 =
      OptimizeRandomizedLec(w.query, w.catalog, model, memory, &s1);
  OptimizeResult r2 =
      OptimizeRandomizedLec(w.query, w.catalog, model, memory, &s2);
  EXPECT_DOUBLE_EQ(r1.objective, r2.objective);
  EXPECT_TRUE(PlanEquals(r1.plan, r2.plan));
}

}  // namespace
}  // namespace lec
