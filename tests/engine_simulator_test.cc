#include "exec/engine_simulator.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "cost/expected_cost.h"
#include "exec/plan_executor.h"
#include "optimizer/system_r.h"

namespace lec {
namespace {

/// Executes `plan` with the given per-phase memory and nothing else
/// switched on: no drift re-planning, no sample collection.
ExecutionResult Execute(const PlanPtr& plan, const Query& query,
                    const EngineWorkload& data,
                    std::vector<double> memory_by_phase) {
  ExecutePlanOptions options;
  options.memory_by_phase = std::move(memory_by_phase);
  return ExecutePlan(plan, query, data, options);
}

// A scaled-down Example 1.1: A = 1000 pages, B = 400, selectivity tuned for
// a small result. sqrt(A) ~ 31.6, sqrt(B) = 20.
struct ScaledWorkload {
  Catalog catalog;
  Query query;

  ScaledWorkload(double a_pages = 1000, double b_pages = 400,
                 double sel = 1e-4) {
    catalog.AddTable("A", a_pages);
    catalog.AddTable("B", b_pages);
    query.AddTable(0);
    query.AddTable(1);
    query.AddPredicate(0, 1, sel);
  }
};

TEST(EngineSimulatorTest, WorkloadShapeMatchesCatalog) {
  ScaledWorkload w;
  Rng rng(1);
  EngineWorkload data = BuildChainEngineWorkload(w.query, w.catalog, &rng);
  ASSERT_EQ(data.tables.size(), 2u);
  EXPECT_EQ(data.tables[0].num_pages(), 1000u);
  EXPECT_EQ(data.tables[1].num_pages(), 400u);
}

TEST(EngineSimulatorTest, RejectsNonChainQueries) {
  Catalog catalog;
  catalog.AddTable("A", 10);
  catalog.AddTable("B", 10);
  catalog.AddTable("C", 10);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 2, 0.01);  // not chain-adjacent as predicate 0
  q.AddPredicate(1, 2, 0.01);
  Rng rng(2);
  EXPECT_THROW(BuildChainEngineWorkload(q, catalog, &rng),
               std::invalid_argument);
}

TEST(EngineSimulatorTest, ResultSizeNearExpectation) {
  ScaledWorkload w(200, 100, 1e-3);
  Rng rng(3);
  EngineWorkload data = BuildChainEngineWorkload(w.query, w.catalog, &rng);
  PlanPtr plan = MakeJoin(MakeAccess(0, 200), MakeAccess(1, 100),
                          JoinMethod::kGraceHash, {0}, kUnsorted, 20);
  ExecutionResult r = Execute(plan, w.query, data, {50});
  // Expected tuples = sel * |A| * |B| * tuples_per_page = 1e-3*200*100*64.
  double expected = 1e-3 * 200 * 100 * kTuplesPerPage;
  EXPECT_GT(r.result_tuples(), expected * 0.7);
  EXPECT_LT(r.result_tuples(), expected * 1.3);
}

TEST(EngineSimulatorTest, AllMethodsProduceSameResultCount) {
  ScaledWorkload w(60, 40, 1e-3);
  Rng rng(4);
  EngineWorkload data = BuildChainEngineWorkload(w.query, w.catalog, &rng);
  size_t counts[3];
  int i = 0;
  for (JoinMethod m : kAllJoinMethods) {
    PlanPtr plan =
        MakeJoin(MakeAccess(0, 60), MakeAccess(1, 40), m, {0}, kUnsorted, 2);
    counts[i++] = Execute(plan, w.query, data, {12}).result_tuples();
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
}

TEST(EngineSimulatorTest, MeasuredIoCrossesModelThreshold) {
  // The decisive fidelity property behind Example 1.1: dropping memory
  // below sqrt(L) costs the sort-merge join an extra pass over the data in
  // *both* the model and the engine.
  ScaledWorkload w;
  Rng rng(5);
  EngineWorkload data = BuildChainEngineWorkload(w.query, w.catalog, &rng);
  PlanPtr sm = MakeJoin(MakeAccess(0, 1000), MakeAccess(1, 400),
                        JoinMethod::kSortMerge, {0}, 0, 10);
  // sqrt(1000+400 combined run count threshold) — probe well above and
  // well below the model's sqrt(1000) ~ 31.6.
  ExecutionResult plenty = Execute(sm, w.query, data, {60});
  ExecutionResult tight = Execute(sm, w.query, data, {12});
  // An extra merge pass re-reads and re-writes ~1400 pages.
  EXPECT_GT(tight.total_io(), plenty.total_io() + 2000);
}

TEST(EngineSimulatorTest, ThreeTableChainExecutesAnyLeftDeepOrder) {
  Catalog catalog;
  catalog.AddTable("A", 40);
  catalog.AddTable("B", 30);
  catalog.AddTable("C", 20);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 1, 2e-3);
  q.AddPredicate(1, 2, 2e-3);
  Rng rng(6);
  EngineWorkload data = BuildChainEngineWorkload(q, catalog, &rng);
  // Order (A B) C.
  PlanPtr ab = MakeJoin(MakeAccess(0, 40), MakeAccess(1, 30),
                        JoinMethod::kGraceHash, {0}, kUnsorted, 2.4);
  PlanPtr abc = MakeJoin(ab, MakeAccess(2, 20), JoinMethod::kGraceHash, {1},
                         kUnsorted, 0.1);
  // Order (B C) A — extends the interval to the left.
  PlanPtr bc = MakeJoin(MakeAccess(1, 30), MakeAccess(2, 20),
                        JoinMethod::kGraceHash, {1}, kUnsorted, 1.2);
  PlanPtr bca = MakeJoin(bc, MakeAccess(0, 40), JoinMethod::kGraceHash, {0},
                         kUnsorted, 0.1);
  ExecutionResult r1 = Execute(abc, q, data, {16});
  ExecutionResult r2 = Execute(bca, q, data, {16});
  // Join results must agree regardless of order.
  EXPECT_EQ(r1.result_tuples(), r2.result_tuples());
}

TEST(EngineSimulatorTest, SortEnforcerChargesIo) {
  ScaledWorkload w(100, 50, 5e-4);
  Rng rng(7);
  EngineWorkload data = BuildChainEngineWorkload(w.query, w.catalog, &rng);
  PlanPtr join = MakeJoin(MakeAccess(0, 100), MakeAccess(1, 50),
                          JoinMethod::kGraceHash, {0}, kUnsorted, 2.5);
  PlanPtr sorted = MakeSort(join, 0);
  ExecutionResult without = Execute(join, w.query, data, {8});
  ExecutionResult with = Execute(sorted, w.query, data, {8});
  EXPECT_GT(with.total_io(), without.total_io());
  EXPECT_EQ(with.result_tuples(), without.result_tuples());
}

TEST(EngineSimulatorTest, DynamicMemoryByPhase) {
  Catalog catalog;
  catalog.AddTable("A", 40);
  catalog.AddTable("B", 30);
  catalog.AddTable("C", 20);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 1, 2e-3);
  q.AddPredicate(1, 2, 2e-3);
  Rng rng(8);
  EngineWorkload data = BuildChainEngineWorkload(q, catalog, &rng);
  PlanPtr ab = MakeJoin(MakeAccess(0, 40), MakeAccess(1, 30),
                        JoinMethod::kSortMerge, {0}, 0, 2.4);
  PlanPtr abc = MakeJoin(ab, MakeAccess(2, 20), JoinMethod::kSortMerge, {1},
                         1, 0.1);
  // Phase 0 rich, phase 1 starved vs the reverse: different I/O totals
  // (phase 0 moves more data, so starving it hurts more).
  ExecutionResult rich_then_poor = Execute(abc, q, data, {32, 3});
  ExecutionResult poor_then_rich = Execute(abc, q, data, {3, 32});
  EXPECT_NE(rich_then_poor.total_io(), poor_then_rich.total_io());
  EXPECT_GT(poor_then_rich.total_io(), rich_then_poor.total_io());
}

TEST(EngineSimulatorTest, EmptyMemoryVectorRejected) {
  ScaledWorkload w(10, 10, 1e-2);
  Rng rng(9);
  EngineWorkload data = BuildChainEngineWorkload(w.query, w.catalog, &rng);
  PlanPtr plan = MakeJoin(MakeAccess(0, 10), MakeAccess(1, 10),
                          JoinMethod::kGraceHash, {0}, kUnsorted, 1);
  EXPECT_THROW(Execute(plan, w.query, data, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lec
