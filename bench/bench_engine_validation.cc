// E10 — Analytic cost model vs the executing storage engine ([Sha86], §4).
//
// The paper's formulas are stylized ("simplified to three cases",
// footnote 2). This experiment checks that the *shape* they encode is real:
// measured page I/O on the mini storage engine steps at the same memory
// thresholds, with the same ordering of join methods — and that the
// LEC-vs-LSC conclusion survives on measured I/O (scaled Example 1.1).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cost/cost_model.h"
#include "cost/expected_cost.h"
#include "exec/engine_simulator.h"
#include "exec/plan_executor.h"
#include "optimizer/algorithm_c.h"
#include "storage/buffer_pool.h"
#include "storage/external_sort.h"
#include "optimizer/system_r.h"
#include "plan/printer.h"

using namespace lec;

int main() {
  CostModel model;

  // --- Part 1: operator-level memory sweep -------------------------------
  // A = 1000 pages, B = 400. Thresholds: sqrt(A)=31.6, cbrt(A)=10,
  // sqrt(B)=20, cbrt(B)=7.37, NL: min+2 = 402.
  Catalog catalog;
  catalog.AddTable("A", 1000);
  catalog.AddTable("B", 400);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddPredicate(0, 1, 2e-5);
  Rng rng(1);
  EngineWorkload data = BuildChainEngineWorkload(q, catalog, &rng);

  bench::Header("E10a", "measured I/O vs model across the memory sweep "
                        "(A=1000, B=400 pages)");
  std::printf("%-8s", "M");
  for (JoinMethod m : kAllJoinMethods) {
    std::printf(" %10s %10s", (ToString(m) + " model").c_str(),
                (ToString(m) + " engine").c_str());
  }
  std::printf("\n");
  bench::Rule();
  for (double memory : {5.0, 8.0, 12.0, 18.0, 25.0, 35.0, 60.0, 150.0,
                        405.0, 1500.0}) {
    std::printf("%-8.0f", memory);
    for (JoinMethod m : kAllJoinMethods) {
      PlanPtr plan = MakeJoin(MakeAccess(0, 1000), MakeAccess(1, 400), m,
                              {0}, m == JoinMethod::kSortMerge ? 0 : kUnsorted,
                              8);
      double analytic = model.JoinCost(m, 1000, 400, memory);
      ExecutePlanOptions options;
      options.memory_by_phase = {memory};
      ExecutionResult run = ExecutePlan(plan, q, data, options);
      std::printf(" %10.0f %10llu", analytic,
                  static_cast<unsigned long long>(run.total_io()));
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpectation: engine I/O steps at the same thresholds as the model"
      "\n(NL matches exactly; SM/GH carry a constant extra read of the "
      "final pass).\n");

  // --- Part 2: external sort exact match ---------------------------------
  bench::Header("E10b", "external sort: measured I/O == model formula");
  std::printf("%-10s %-8s %14s %14s\n", "pages", "M", "model", "engine");
  bench::Rule();
  for (auto [pages, memory] : std::vector<std::pair<size_t, size_t>>{
           {200, 8}, {200, 20}, {500, 10}, {500, 4}, {1000, 16}}) {
    Rng srng(pages * 7 + memory);
    TableData t = GenerateTable(pages, 5000, 0, &srng);
    BufferPool pool(memory);
    ExternalSortOp(&pool, t, 0);
    std::printf("%-10zu %-8zu %14.0f %14llu\n", pages, memory,
                model.SortCost(static_cast<double>(pages),
                               static_cast<double>(memory)),
                static_cast<unsigned long long>(pool.total_io()));
  }

  // --- Part 3: scaled Example 1.1 on measured I/O -------------------------
  bench::Header("E10c", "scaled Example 1.1 decided by *measured* page I/O");
  Catalog cat2;
  cat2.AddTable("A", 1000);
  cat2.AddTable("B", 400);
  Query q2;
  q2.AddTable(0);
  q2.AddTable(1);
  q2.AddPredicate(0, 1, 2e-4);  // 80-page result
  q2.RequireOrder(0);
  Distribution memory = Distribution::TwoPoint(45, 0.8, 22, 0.2);
  OptimizeResult lsc = OptimizeLscAtEstimate(q2, cat2, model, memory,
                                             PointEstimate::kMode);
  OptimizeResult lec = OptimizeLecStatic(q2, cat2, model, memory);
  Rng rng2(2);
  EngineWorkload data2 = BuildChainEngineWorkload(q2, cat2, &rng2);
  auto measure = [&](const PlanPtr& plan) {
    double total = 0;
    ExecutePlanOptions options;
    for (const Bucket& m : memory.buckets()) {
      options.memory_by_phase = {m.value};
      total += m.prob * static_cast<double>(
                            ExecutePlan(plan, q2, data2, options).total_io());
    }
    return total;
  };
  std::printf("%-14s %-26s %18s\n", "optimizer", "plan",
              "measured avg I/O");
  bench::Rule();
  std::printf("%-14s %-26s %18.0f\n", "LSC@mode",
              PlanToString(lsc.plan, q2, cat2).c_str(), measure(lsc.plan));
  std::printf("%-14s %-26s %18.0f\n", "LEC",
              PlanToString(lec.plan, q2, cat2).c_str(), measure(lec.plan));
  std::printf("\nExpectation: the LEC plan's measured average I/O is lower "
              "— the paper's\nconclusion holds on an executing system, not "
              "just inside the cost model.\n");
  return 0;
}
