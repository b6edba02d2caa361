// E23 — Execution & calibration: the closed loop from plan to realized
// page I/O and back.
//
// PR 9's tentpole claims, measured:
//   * replaying the operator calibration grid through the real storage/
//     operators and least-squares-fitting MeasuredCostModel (alpha ·
//     analytic + beta · (|A|+|B|) + gamma per operator) cuts the mean
//     absolute relative prediction error well below the raw analytic
//     formulas' on the same corpus;
//   * on a stale-statistics chain (the planner believes selectivities ~100x
//     smaller than the data's), detecting after each join that the realized
//     intermediate left the planned trajectory and re-optimizing the
//     remaining phases — the intermediate re-entering the catalog at its
//     REALIZED size — beats running the stale plan to completion on total
//     charged page I/O.
//
// Self-timed (no Google Benchmark dependency). Both gated metrics are
// DETERMINISTIC: a fit-quality number and a page-count ratio, not timings.
// The bench additionally hard-fails unless the adaptive and straight
// executions return the identical payload multiset (re-optimization must
// never change the answer — fuzz I12's invariant) and unless the adaptive
// run actually re-optimized and actually saved I/O.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cost/cost_model.h"
#include "cost/cost_policies.h"
#include "cost/measured_cost.h"
#include "exec/plan_executor.h"
#include "optimizer/dp_common.h"
#include "storage/table_data.h"
#include "util/rng.h"

using namespace lec;

namespace {

int g_failures = 0;

void EmitBudget(const char* metric, double value) {
  std::printf("BUDGET %s %.6f\n", metric, value);
}

std::vector<int64_t> PayloadMultiset(const TableData& t) {
  std::vector<int64_t> out;
  out.reserve(t.num_tuples());
  t.ForEachTuple([&](const Tuple& tup) { out.push_back(tup.payload); });
  std::sort(out.begin(), out.end());
  return out;
}

void PrintPhases(const char* label, const ExecutionResult& r) {
  std::printf("%s: io %llu (%llu reads, %llu writes), %d reopt\n", label,
              static_cast<unsigned long long>(r.total_io()),
              static_cast<unsigned long long>(r.page_reads),
              static_cast<unsigned long long>(r.page_writes),
              r.reoptimizations);
  for (const PhaseTrace& t : r.phases) {
    std::printf("  phase %d: %-10s %5.0fx%-4.0f planned %7.3f realized %4.0f "
                "io %4llu+%-4llu M=%g%s\n",
                t.phase, t.is_sort ? "sort" : ToString(t.method).c_str(),
                t.left_pages, t.right_pages, t.planned_output_pages,
                t.realized_output_pages,
                static_cast<unsigned long long>(t.page_reads),
                static_cast<unsigned long long>(t.page_writes), t.memory,
                t.drifted ? " [drift]" : "");
  }
}

// ---- Calibration leg ------------------------------------------------------

double RunCalibration() {
  bench::Header("E23a", "measured cost model: fit vs raw analytic formulas");
  CalibrationGrid grid;
  Rng rng(17);
  std::vector<OperatorSample> corpus = BuildCalibrationCorpus(grid, &rng);
  CostModel analytic;
  MeasuredCostModel unfit(analytic);
  MeasuredCostModel fitted(analytic);
  fitted.Fit(corpus);
  double err_unfit = unfit.MeanAbsRelativeError(corpus);
  double err_fitted = fitted.MeanAbsRelativeError(corpus);
  for (JoinMethod m : kAllJoinMethods) {
    const MeasuredCoefficients& c = fitted.join_coefficients(m);
    std::printf("  %-11s alpha=%.4f beta=%+.4f gamma=%+7.2f (%zu samples)\n",
                ToString(m).c_str(), c.alpha, c.beta, c.gamma, c.samples);
  }
  const MeasuredCoefficients& s = fitted.sort_coefficients();
  std::printf("  %-11s alpha=%.4f beta=%+.4f gamma=%+7.2f (%zu samples)\n",
              "sort", s.alpha, s.beta, s.gamma, s.samples);
  std::printf("corpus %zu runs: mean abs rel error %.4f (analytic) -> %.4f "
              "(fitted)\n",
              corpus.size(), err_unfit, err_fitted);
  if (!(err_fitted < err_unfit)) {
    std::printf("!! fitted model does not beat raw analytic on its corpus\n");
    ++g_failures;
  }
  if (!(err_fitted < 0.35)) {
    std::printf("!! calibrated prediction error %.4f above the 0.35 "
                "acceptance bar\n",
                err_fitted);
    ++g_failures;
  }
  return err_fitted;
}

// ---- Re-optimization leg --------------------------------------------------

double RunReoptimization() {
  bench::Header("E23b",
                "mid-flight re-optimization vs running the stale plan out");
  // The planner's world: a 4-chain whose predicates it believes are ~100x
  // more selective than the data's. Tiny estimated intermediates make
  // nested loops look free for every tail join; realized intermediates of
  // 12-15 pages make them the worst possible choice at M=6.
  std::vector<double> pages = {12, 10, 12, 10};
  double stale_sel = 1e-3, true_sel = 0.1;
  Catalog catalog;
  Query stale, truth;
  for (size_t i = 0; i < pages.size(); ++i) {
    // Two steps, not operator+: GCC 12's -Wrestrict false-fires on it.
    std::string name = "t";
    name += std::to_string(i);
    TableId id = catalog.AddTable(name, pages[i]);
    stale.AddTable(id);
    truth.AddTable(id);
  }
  for (int i = 0; i + 1 < static_cast<int>(pages.size()); ++i) {
    stale.AddPredicate(i, i + 1, stale_sel);
    truth.AddPredicate(i, i + 1, true_sel);
  }
  // Data realizes the TRUE selectivities; the plan only ever saw the stale
  // ones.
  Rng rng(101);
  EngineWorkload data = BuildChainEngineWorkload(truth, catalog, &rng);
  CostModel model;
  DpContext ctx(stale, catalog, OptimizerOptions{});
  OptimizeResult plan = RunDp(ctx, LscCostProvider{model, 6.0});

  ExecutePlanOptions straight;
  straight.memory_by_phase = {6.0};
  ExecutionResult run = ExecutePlan(plan.plan, stale, data, straight);

  // The adaptive executor still only knows the stale selectivities — what
  // changes after a drifted phase is that the materialized intermediate
  // re-enters the catalog at its realized page count.
  ExecutePlanOptions adaptive = straight;
  adaptive.reoptimize_on_drift = true;
  adaptive.drift_threshold = 0.5;
  adaptive.model = &model;
  ExecutionResult rerun = ExecutePlan(plan.plan, stale, data, adaptive);

  PrintPhases("straight (stale plan to completion)", run);
  PrintPhases("adaptive (re-optimize on drift)", rerun);

  if (PayloadMultiset(run.result) != PayloadMultiset(rerun.result)) {
    std::printf("!! adaptive execution changed the answer\n");
    ++g_failures;
  }
  if (rerun.reoptimizations == 0) {
    std::printf("!! stale estimates never triggered a re-optimization\n");
    ++g_failures;
  }
  double ratio = static_cast<double>(rerun.total_io()) /
                 static_cast<double>(run.total_io());
  std::printf("re-optimized I/O ratio: %.4f (%llu vs %llu pages)\n", ratio,
              static_cast<unsigned long long>(rerun.total_io()),
              static_cast<unsigned long long>(run.total_io()));
  if (!(ratio < 1.0)) {
    std::printf("!! re-optimization failed to beat run-to-completion\n");
    ++g_failures;
  }
  return ratio;
}

}  // namespace

int main() {
  double relerr = RunCalibration();
  double ratio = RunReoptimization();
  bench::Rule();
  // Both DETERMINISTIC (a least-squares fit on a seeded corpus; a page
  // counter ratio) — blessed with headroom only for FP reassociation
  // across toolchains, never for noise.
  EmitBudget("exec_calibration_relerr", relerr);
  EmitBudget("exec_reopt_io_ratio", ratio);
  if (g_failures > 0) {
    std::printf("%d hard failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
