// Failure-injection and boundary-condition tests: the library must fail
// loudly (typed exceptions) rather than silently degrade when its inputs
// or resource constraints are violated.
#include <gtest/gtest.h>

#include "cost/expected_cost.h"
#include "dist/builders.h"
#include "exec/engine_simulator.h"
#include "exec/plan_executor.h"
#include "optimizer/algorithm_c.h"
#include "optimizer/system_r.h"
#include "storage/buffer_pool.h"
#include "storage/external_sort.h"
#include "storage/join_operators.h"
#include "query/generator.h"

namespace lec {
namespace {

TEST(FailureInjectionTest, OperatorsRespectTinyMemory) {
  // One buffer page: the operators must still terminate and produce
  // correct results, charging (a lot of) I/O, never crashing.
  Rng rng(1);
  TableData left = GenerateTable(6, 30, 0, &rng);
  TableData right = GenerateTable(4, 30, 0, &rng);
  JoinColumnSpec spec;
  TableData expected = NaiveJoinReference(left, right, spec);
  for (JoinMethod m : kAllJoinMethods) {
    BufferPool pool(1);
    TableData got;
    switch (m) {
      case JoinMethod::kSortMerge:
        got = SortMergeJoinOp(&pool, left, right, spec);
        break;
      case JoinMethod::kGraceHash:
        got = GraceHashJoinOp(&pool, left, right, spec);
        break;
      case JoinMethod::kNestedLoop:
        got = NestedLoopJoinOp(&pool, left, right, spec);
        break;
      case JoinMethod::kHybridHash:
        continue;  // analytic-only
    }
    EXPECT_EQ(got.num_tuples(), expected.num_tuples()) << ToString(m);
    EXPECT_GT(pool.total_io(), 0u);
  }
}

TEST(FailureInjectionTest, ReservationOverflowThrowsNotCorrupts) {
  BufferPool pool(4);
  BufferPool::Reservation r = pool.Reserve(4);
  EXPECT_THROW(pool.Reserve(1), OutOfMemoryError);
  // Pool state unchanged by the failed reservation.
  EXPECT_EQ(pool.reserved(), 4u);
}

TEST(FailureInjectionTest, DegenerateDistributions) {
  // A distribution whose mass concentrates after normalization of wildly
  // different weights must still behave.
  Distribution d({{100, 1e-15}, {200, 1.0}});
  EXPECT_EQ(d.size(), 1u);  // epsilon bucket dropped
  EXPECT_DOUBLE_EQ(d.Mean(), 200);
}

TEST(FailureInjectionTest, OptimizerOnImpossibleQueryThrows) {
  // Two disconnected components with cross products forbidden explicitly:
  // there is no legal plan; the optimizer must say so, not loop or return
  // garbage.
  Catalog catalog;
  catalog.AddTable("A", 10);
  catalog.AddTable("B", 10);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  // No predicates. With the System R heuristic the disconnected graph
  // relaxes the rule and a cross join is produced...
  CostModel model;
  EXPECT_NO_THROW(OptimizeLsc(q, catalog, model, 100));
  // ...but with NL/GH removed no method can evaluate a cross join at all.
  OptimizerOptions sm_only;
  sm_only.join_methods = {JoinMethod::kSortMerge};
  EXPECT_THROW(OptimizeLsc(q, catalog, model, 100, sm_only),
               std::runtime_error);
}

TEST(FailureInjectionTest, EngineRejectsMalformedPlans) {
  Catalog catalog;
  catalog.AddTable("A", 8);
  catalog.AddTable("B", 8);
  catalog.AddTable("C", 8);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 1, 0.01);
  q.AddPredicate(1, 2, 0.01);
  Rng rng(2);
  EngineWorkload data = BuildChainEngineWorkload(q, catalog, &rng);
  // A "left-deep" plan joining non-adjacent chain positions first can't be
  // executed (no routable key) — must throw, not mis-join. Build it with
  // cross products allowed.
  PlanPtr ac = MakeJoin(MakeAccess(0, 8), MakeAccess(2, 8),
                        JoinMethod::kGraceHash, {}, kUnsorted, 64);
  PlanPtr acb = MakeJoin(ac, MakeAccess(1, 8), JoinMethod::kGraceHash,
                         {0, 1}, kUnsorted, 1);
  ExecutePlanOptions options;
  options.memory_by_phase = {16};
  EXPECT_THROW(ExecutePlan(acb, q, data, options), std::invalid_argument);
}

TEST(FailureInjectionTest, ZeroSizedRelationsInCostModel) {
  CostModel model;
  // Zero-page inputs are legal (empty intermediate results) and cost 0/|B|.
  EXPECT_DOUBLE_EQ(model.JoinCost(JoinMethod::kNestedLoop, 0, 10, 100), 10);
  EXPECT_DOUBLE_EQ(model.JoinCost(JoinMethod::kSortMerge, 0, 0, 100), 0);
  EXPECT_DOUBLE_EQ(model.SortCost(0, 5), 0);
}

TEST(FailureInjectionTest, RealizationTooShortMemoryVectorClamps) {
  // A realization with fewer memory phases than joins clamps to the last
  // value instead of reading out of bounds.
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
  PlanPtr ab = MakeJoin(MakeAccess(0, 100), MakeAccess(1, 100),
                        JoinMethod::kGraceHash, {0}, kUnsorted, 100);
  PlanPtr abc = MakeJoin(ab, MakeAccess(2, 100), JoinMethod::kGraceHash,
                         {1}, kUnsorted, 100);
  Realization r = Realization::AtMeans(q, catalog, 500);  // one phase only
  EXPECT_NO_THROW(RealizedPlanCost(abc, q, model, r));
  Realization empty = r;
  empty.memory_by_phase.clear();
  EXPECT_THROW(RealizedPlanCost(abc, q, model, empty),
               std::invalid_argument);
}

TEST(FailureInjectionTest, SkewedDataDoesNotBreakSortMerge) {
  // All duplicate keys on both sides: quadratic output, merge join must
  // handle the full group cross product.
  TableData left, right;
  for (size_t i = 0; i < kTuplesPerPage; ++i) {
    left.Append({{5, 0}, static_cast<int64_t>(i)});
    right.Append({{5, 0}, static_cast<int64_t>(100 + i)});
  }
  BufferPool pool(2);
  JoinColumnSpec spec;
  TableData out = SortMergeJoinOp(&pool, left, right, spec);
  EXPECT_EQ(out.num_tuples(), kTuplesPerPage * kTuplesPerPage);
}

TEST(FailureInjectionTest, MarkovChainMassConservedUnderLongHorizon) {
  MarkovChain chain = MarkovChain::Drift({1, 2, 3, 4, 5, 6, 7, 8}, 0.25);
  Distribution d = Distribution::PointMass(4);
  for (int i = 0; i < 200; ++i) d = chain.Step(d);
  double mass = 0;
  for (const Bucket& b : d.buckets()) mass += b.prob;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

}  // namespace
}  // namespace lec
