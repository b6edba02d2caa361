#include "exec/plan_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/cost_policies.h"
#include "optimizer/reoptimize.h"
#include "storage/join_operators.h"

namespace lec {
namespace {

/// Sorted payload vector — the exact multiset identity every executed plan
/// must satisfy against the naive reference.
std::vector<int64_t> PayloadMultiset(const TableData& t) {
  std::vector<int64_t> out;
  out.reserve(t.num_tuples());
  t.ForEachTuple([&](const Tuple& tup) { out.push_back(tup.payload); });
  std::sort(out.begin(), out.end());
  return out;
}

/// Composes NaiveJoinReference in the given left-deep join order, using the
/// same chain column routing the executor applies. This is the test's own
/// copy of the routing contract — a divergence in either side fails the
/// multiset comparison.
TableData NaiveCompose(const EngineWorkload& w,
                       const std::vector<QueryPos>& order) {
  TableData cur = w.tables.at(static_cast<size_t>(order.at(0)));
  int lo = order[0], hi = order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    int j = order[i];
    JoinColumnSpec spec;
    if (j == hi + 1) {
      spec.left_col = 1;
      spec.right_col = 0;
      spec.out0_side = 0;
      spec.out0_col = 0;
      spec.out1_side = 1;
      spec.out1_col = 1;
      hi = j;
    } else {
      EXPECT_EQ(j, lo - 1) << "test order must walk adjacent chain positions";
      spec.left_col = 0;
      spec.right_col = 1;
      spec.out0_side = 1;
      spec.out0_col = 0;
      spec.out1_side = 0;
      spec.out1_col = 1;
      lo = j;
    }
    cur = NaiveJoinReference(cur, w.tables.at(static_cast<size_t>(j)), spec);
  }
  return cur;
}

struct ChainFixture {
  Catalog catalog;
  Query query;
  EngineWorkload data;

  explicit ChainFixture(std::vector<double> pages, double sel = 0.02,
                        uint64_t seed = 11) {
    for (size_t i = 0; i < pages.size(); ++i) {
      // Two steps, not operator+: GCC 12's -Wrestrict false-fires on it.
      std::string name = "t";
      name += std::to_string(i);
      catalog.AddTable(name, pages[i]);
      query.AddTable(static_cast<TableId>(i));
    }
    for (size_t i = 0; i + 1 < pages.size(); ++i) {
      query.AddPredicate(static_cast<QueryPos>(i),
                         static_cast<QueryPos>(i + 1), sel);
    }
    Rng rng(seed);
    data = BuildChainEngineWorkload(query, catalog, &rng);
  }
};

/// Hand-built left-deep plan over `order` with one method everywhere.
PlanPtr ChainPlan(const std::vector<QueryPos>& order, JoinMethod method,
                  double est_pages = 4.0) {
  PlanPtr plan = MakeAccess(order.at(0), 1);
  int lo = order[0], hi = order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    int j = order[i];
    int pred = j == hi + 1 ? hi : j;  // predicate between j and the interval
    lo = std::min(lo, j);
    hi = std::max(hi, j);
    plan = MakeJoin(plan, MakeAccess(j, 1), method, {pred}, kUnsorted,
                    est_pages);
  }
  return plan;
}

// --- Correctness across methods and spill regimes -------------------------

TEST(PlanExecutorTest, MultisetMatchesNaiveReferenceAllMethodsAllRegimes) {
  // Pages chosen so the memory grid straddles every operator threshold:
  // NL in-memory needs M >= min+2 = 10; SM/GH flip passes around
  // sqrt(20) ~ 4.5 and cbrt(20) ~ 2.7.
  ChainFixture f({20, 12, 16, 8});
  std::vector<QueryPos> order = {0, 1, 2, 3};
  std::vector<int64_t> want = PayloadMultiset(NaiveCompose(f.data,
                                                                  order));
  ASSERT_FALSE(want.empty());
  for (JoinMethod m : kAllJoinMethods) {
    for (double memory : {3.0, 5.0, 8.0, 40.0}) {
      PlanPtr plan = ChainPlan(order, m);
      ExecutePlanOptions opts;
      opts.memory_by_phase = {memory};
      ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
      EXPECT_EQ(PayloadMultiset(r.result), want)
          << ToString(m) << " at M=" << memory;
      EXPECT_GT(r.total_io(), 0u);
      EXPECT_EQ(r.phases.size(), 3u);
    }
  }
}

TEST(PlanExecutorTest, BackwardAndMixedOrdersMatchForwardResult) {
  ChainFixture f({14, 10, 12, 8}, 0.03, 7);
  std::vector<int64_t> want =
      PayloadMultiset(NaiveCompose(f.data, {0, 1, 2, 3}));
  for (std::vector<QueryPos> order :
       {std::vector<QueryPos>{3, 2, 1, 0}, std::vector<QueryPos>{1, 2, 0, 3},
        std::vector<QueryPos>{2, 1, 3, 0}}) {
    std::vector<int64_t> naive =
        PayloadMultiset(NaiveCompose(f.data, order));
    EXPECT_EQ(naive, want) << "naive reference must be order-invariant";
    PlanPtr plan = ChainPlan(order, JoinMethod::kGraceHash);
    ExecutePlanOptions opts;
    opts.memory_by_phase = {6.0};
    ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
    EXPECT_EQ(PayloadMultiset(r.result), want);
  }
}

TEST(PlanExecutorTest, PerPhaseMemoryAndTracesAreRecorded) {
  ChainFixture f({16, 12, 8});
  PlanPtr plan = ChainPlan({0, 1, 2}, JoinMethod::kSortMerge);
  ExecutePlanOptions opts;
  opts.memory_by_phase = {24.0, 3.0};
  ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].memory, 24.0);
  EXPECT_EQ(r.phases[1].memory, 3.0);
  EXPECT_EQ(r.phases[0].phase, 0);
  EXPECT_EQ(r.phases[1].phase, 1);
  EXPECT_EQ(r.phases[0].method, JoinMethod::kSortMerge);
  uint64_t traced = 0;
  for (const PhaseTrace& t : r.phases) traced += t.page_reads + t.page_writes;
  EXPECT_EQ(traced, r.total_io());
  EXPECT_EQ(r.phases[0].left_pages, 16.0);
  EXPECT_EQ(r.phases[0].right_pages, 12.0);
}

TEST(PlanExecutorTest, FinalSortIsExecutedAndTraced) {
  ChainFixture f({16, 12});
  PlanPtr join = ChainPlan({0, 1}, JoinMethod::kGraceHash);
  PlanPtr sorted = MakeSort(join, 0);
  ExecutePlanOptions opts;
  opts.memory_by_phase = {6.0};
  ExecutionResult plain = ExecutePlan(join, f.query, f.data, opts);
  ExecutionResult with = ExecutePlan(sorted, f.query, f.data, opts);
  EXPECT_EQ(PayloadMultiset(with.result), PayloadMultiset(plain.result));
  EXPECT_GT(with.total_io(), plain.total_io());
  ASSERT_EQ(with.phases.size(), 2u);
  EXPECT_TRUE(with.phases.back().is_sort);
  // Output really is sorted on column 0.
  int64_t prev = INT64_MIN;
  bool ordered = true;
  with.result.ForEachTuple([&](const Tuple& t) {
    if (t.cols[0] < prev) ordered = false;
    prev = t.cols[0];
  });
  EXPECT_TRUE(ordered);
}

// --- Drift detection and mid-flight re-optimization -----------------------

TEST(PlanExecutorTest, DriftFlagFiresOnStaleEstimates) {
  ChainFixture f({16, 12, 8});
  // est_pages deliberately tiny: every realized intermediate "drifts".
  PlanPtr plan = ChainPlan({0, 1, 2}, JoinMethod::kGraceHash,
                           /*est_pages=*/0.01);
  ExecutePlanOptions opts;
  opts.memory_by_phase = {8.0};
  opts.drift_threshold = 0.5;
  ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_TRUE(r.phases[0].drifted);
  EXPECT_EQ(r.reoptimizations, 0);  // detection only, reoptimize off
}

TEST(PlanExecutorTest, ReoptimizationPreservesResultMultiset) {
  ChainFixture f({18, 10, 14, 8}, 0.03, 13);
  std::vector<int64_t> want =
      PayloadMultiset(NaiveCompose(f.data, {0, 1, 2, 3}));
  CostModel model;
  for (JoinMethod m : kAllJoinMethods) {
    PlanPtr plan = ChainPlan({0, 1, 2, 3}, m, /*est_pages=*/0.01);
    ExecutePlanOptions opts;
    opts.memory_by_phase = {12.0, 6.0, 20.0};
    opts.drift_threshold = 0.0;  // every phase "drifts": force re-planning
    opts.reoptimize_on_drift = true;
    opts.model = &model;
    ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
    EXPECT_GT(r.reoptimizations, 0) << ToString(m);
    EXPECT_EQ(PayloadMultiset(r.result), want) << ToString(m);
    // Re-planning never changes the total number of executed joins.
    int joins = 0;
    for (const PhaseTrace& t : r.phases) joins += t.is_sort ? 0 : 1;
    EXPECT_EQ(joins, 3);
  }
}

TEST(PlanExecutorTest, ReoptimizationBudgetIsRespected) {
  ChainFixture f({18, 10, 14, 8}, 0.03, 13);
  CostModel model;
  PlanPtr plan = ChainPlan({0, 1, 2, 3}, JoinMethod::kGraceHash,
                           /*est_pages=*/0.01);
  ExecutePlanOptions opts;
  opts.memory_by_phase = {8.0};
  opts.drift_threshold = 0.0;
  opts.reoptimize_on_drift = true;
  opts.model = &model;
  opts.max_reoptimizations = 1;
  ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
  EXPECT_EQ(r.reoptimizations, 1);
}

TEST(PlanExecutorTest, ReoptimizeRequiresModel) {
  ChainFixture f({8, 8});
  PlanPtr plan = ChainPlan({0, 1}, JoinMethod::kGraceHash);
  ExecutePlanOptions opts;
  opts.memory_by_phase = {8.0};
  opts.reoptimize_on_drift = true;
  EXPECT_THROW(ExecutePlan(plan, f.query, f.data, opts),
               std::invalid_argument);
}

TEST(PlanExecutorTest, ReoptimizationWithMarkovChainPreservesResult) {
  ChainFixture f({18, 10, 14, 8}, 0.03, 29);
  std::vector<int64_t> want =
      PayloadMultiset(NaiveCompose(f.data, {0, 1, 2, 3}));
  CostModel model;
  MarkovChain chain = MarkovChain::Drift({4.0, 8.0, 16.0}, 0.6);
  Rng rng(5);
  std::vector<double> trajectory =
      chain.SampleTrajectory(Distribution::PointMass(8.0), 3, &rng);
  PlanPtr plan = ChainPlan({0, 1, 2, 3}, JoinMethod::kSortMerge,
                           /*est_pages=*/0.01);
  ExecutePlanOptions opts;
  opts.memory_by_phase = trajectory;
  opts.drift_threshold = 0.0;
  opts.reoptimize_on_drift = true;
  opts.model = &model;
  opts.chain = &chain;  // marginals conditioned on the realized state
  ExecutionResult r = ExecutePlan(plan, f.query, f.data, opts);
  EXPECT_GT(r.reoptimizations, 0);
  EXPECT_EQ(PayloadMultiset(r.result), want);
}

// --- Measured cost model ---------------------------------------------------

TEST(MeasuredCostModelTest, UnfitModelIsBitIdenticalToAnalytic) {
  CostModel analytic;
  MeasuredCostModel measured(analytic);
  for (JoinMethod m : kAllJoinMethods) {
    for (double mem : {3.0, 6.0, 12.0, 50.0}) {
      EXPECT_EQ(measured.JoinCost(m, 100, 40, mem),
                analytic.JoinCost(m, 100, 40, mem));
    }
  }
  EXPECT_EQ(measured.SortCost(80, 7), analytic.SortCost(80, 7));
}

TEST(MeasuredCostModelTest, FitRecoversExactLinearRelationship) {
  // Corpus manufactured as measured = 1.5 * analytic + 0.5 * (a+b) + 3:
  // the least-squares fit must recover the coefficients and predict with
  // ~zero error.
  CostModel analytic;
  std::vector<OperatorSample> corpus;
  for (double a : {10.0, 20.0, 40.0, 80.0}) {
    for (double b : {5.0, 15.0, 30.0}) {
      for (double mem : {3.0, 5.0, 9.0, 20.0}) {
        OperatorSample s;
        s.method = JoinMethod::kSortMerge;
        s.left_pages = a;
        s.right_pages = b;
        s.memory = mem;
        s.measured_io =
            1.5 * analytic.JoinCost(JoinMethod::kSortMerge, a, b, mem) +
            0.5 * (a + b) + 3.0;
        corpus.push_back(s);
      }
    }
  }
  MeasuredCostModel model(analytic);
  model.Fit(corpus);
  const MeasuredCoefficients& c =
      model.join_coefficients(JoinMethod::kSortMerge);
  EXPECT_NEAR(c.alpha, 1.5, 1e-3);
  EXPECT_NEAR(c.beta, 0.5, 1e-2);
  EXPECT_NEAR(c.gamma, 3.0, 0.5);
  EXPECT_LT(model.MeanAbsRelativeError(corpus), 1e-3);
  EXPECT_EQ(c.samples, corpus.size());
  // Unfit operators keep the analytic fallback.
  EXPECT_EQ(model.join_coefficients(JoinMethod::kNestedLoop).samples, 0u);
  EXPECT_EQ(model.JoinCost(JoinMethod::kNestedLoop, 10, 5, 20),
            analytic.JoinCost(JoinMethod::kNestedLoop, 10, 5, 20));
}

TEST(MeasuredCostModelTest, CalibrationOnRealOperatorsBeatsRawAnalytic) {
  CalibrationGrid grid;
  Rng rng(17);
  std::vector<OperatorSample> corpus = BuildCalibrationCorpus(grid, &rng);
  ASSERT_GT(corpus.size(), 50u);
  CostModel analytic;
  MeasuredCostModel unfit(analytic);
  MeasuredCostModel fitted(analytic);
  fitted.Fit(corpus);
  double err_unfit = unfit.MeanAbsRelativeError(corpus);
  double err_fitted = fitted.MeanAbsRelativeError(corpus);
  EXPECT_LE(err_fitted, err_unfit + 1e-9);
  EXPECT_LT(err_fitted, 0.35);
}

TEST(MeasuredCostModelTest, MeasuredBackendPlansThroughTheSameDp) {
  Catalog catalog;
  catalog.AddTable("A", 200);
  catalog.AddTable("B", 40);
  catalog.AddTable("C", 120);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 1, 1e-3);
  q.AddPredicate(1, 2, 1e-3);
  CostModel analytic;
  // Unfit model: the measured backend must reproduce the LSC DP exactly
  // (identity coefficients make every candidate cost bit-identical).
  MeasuredCostModel unfit(analytic);
  OptimizeResult via_measured = OptimizeWithMeasuredModel(q, catalog, unfit,
                                                          12.0);
  DpContext ctx(q, catalog, OptimizerOptions{});
  OptimizeResult via_analytic = RunDp(ctx, LscCostProvider{analytic, 12.0});
  EXPECT_EQ(via_measured.objective, via_analytic.objective);
  EXPECT_TRUE(PlanEquals(via_measured.plan, via_analytic.plan));
  // A fitted model still yields a valid plan for the same query.
  Rng rng(23);
  CalibrationGrid grid;
  MeasuredCostModel fitted(analytic);
  fitted.Fit(BuildCalibrationCorpus(grid, &rng));
  OptimizeResult refit = OptimizeWithMeasuredModel(q, catalog, fitted, 12.0);
  ASSERT_NE(refit.plan, nullptr);
  EXPECT_EQ(CountJoins(refit.plan), 2);
  EXPECT_GT(refit.objective, 0.0);
}

}  // namespace
}  // namespace lec
