// Executing optimizer plans with per-phase tracing, drift detection and
// mid-flight re-optimization.
//
// The one plan executor: it runs an OptimizeResult plan phase by phase
// through the real storage/ operators over the data BuildChainEngineWorkload
// (exec/engine_simulator.h) generates. Callers that only want "what did
// this plan cost" set ExecutePlanOptions::memory_by_phase and read
// page_reads, page_writes and result_tuples() off the result. After every
// join it:
//
//   * records a PhaseTrace — operator, input/output pages (planned AND
//     realized), charged I/O, the memory value in force;
//   * emits an OperatorSample for the calibration corpus
//     (cost/measured_cost.h) when asked;
//   * tests the paper's dynamic trigger: has the realized parameter path
//     left the planned trajectory? The observable here is the
//     intermediate-result size — the realized page count vs the plan
//     node's est_pages. On relative deviation beyond drift_threshold the
//     executor rebuilds the REMAINDER as a fresh chain query (the
//     materialized intermediate becomes a base relation at its realized
//     size, unconsumed originals keep their positions), re-plans it via
//     ReoptimizeSuffix — conditioning the Markov marginals on the memory
//     state observed now — and continues executing the new plan.
//
// Correctness contract: with or without re-optimization, the executed
// result is multiset-equal to NaiveJoinReference composed in plan order
// (plan_executor_test.cc; fuzz invariant I12). Re-optimization changes
// only which plan the tail executes, never the answer.
//
// Scope: chain queries, left-deep plans.
#ifndef LECOPT_EXEC_PLAN_EXECUTOR_H_
#define LECOPT_EXEC_PLAN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "cost/measured_cost.h"
#include "dist/markov.h"
#include "exec/engine_simulator.h"
#include "optimizer/dp_common.h"
#include "plan/plan.h"
#include "query/query.h"
#include "storage/table_data.h"
#include "util/rng.h"

namespace lec {

/// One executed operator (a join phase, or the final ORDER BY sort).
struct PhaseTrace {
  int phase = 0;  ///< global 0-based phase index (joins; the final sort
                  ///< reuses the last join's phase)
  bool is_sort = false;
  JoinMethod method = JoinMethod::kNestedLoop;
  double left_pages = 0;   ///< outer input pages (sort: input pages)
  double right_pages = 0;  ///< inner input pages (sort: 0)
  double planned_output_pages = 0;   ///< the plan node's est_pages
  double realized_output_pages = 0;  ///< PagesForTuples of the real output
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  double memory = 0;     ///< buffer-pool capacity during this phase
  bool drifted = false;  ///< drift rule fired after this phase
};

/// Knobs for one execution.
struct ExecutePlanOptions {
  /// Buffer-pool capacity per global join phase; a single value means
  /// static memory, out-of-range phases clamp to the last value. Required.
  std::vector<double> memory_by_phase;

  /// Drift rule: |realized - planned| > drift_threshold · max(planned, 1)
  /// pages flags the phase as drifted.
  double drift_threshold = 0.5;

  /// Re-plan the remaining phases when a drifted phase leaves work to do.
  /// Requires `model`. Off: drift is still detected and traced, execution
  /// just runs the original plan to completion.
  bool reoptimize_on_drift = false;

  /// Hard cap on re-optimizations per execution (guards pathological
  /// workloads where every phase drifts).
  int max_reoptimizations = 3;

  /// Analytic model used by suffix re-planning (required iff
  /// reoptimize_on_drift).
  const CostModel* model = nullptr;

  /// Dynamic regime for suffix re-planning: marginals conditioned on the
  /// memory value in force at the drifted phase (which must then be a
  /// chain state). Null falls back to the realized memory suffix.
  const MarkovChain* chain = nullptr;

  /// Static LEC regime for suffix re-planning when no chain is given and
  /// the realized suffix should not be assumed known. Rarely wanted in the
  /// simulator (it knows its own trajectory); exposed for completeness.
  const Distribution* memory_dist = nullptr;

  /// Passed through to suffix re-planning.
  OptimizerOptions optimizer_options;

  /// Record an OperatorSample per executed operator (joins, enforcer
  /// sorts, the final sort) into ExecutionResult::samples.
  bool collect_samples = false;
};

/// Outcome of one execution.
struct ExecutionResult {
  TableData result;
  std::vector<PhaseTrace> phases;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  int reoptimizations = 0;
  std::vector<OperatorSample> samples;  ///< when collect_samples

  uint64_t total_io() const { return page_reads + page_writes; }
  size_t result_tuples() const { return result.num_tuples(); }
};

/// Executes `plan` for `query` against `workload`. The plan must be
/// left-deep over adjacent chain positions (what the optimizers emit for
/// chain queries); the workload must have one TableData per query position
/// (BuildChainEngineWorkload's shape). Throws std::invalid_argument on
/// shape violations (a non-chain join, a bushy plan, a hybrid-hash join,
/// an empty memory_by_phase).
ExecutionResult ExecutePlan(const PlanPtr& plan, const Query& query,
                            const EngineWorkload& workload,
                            const ExecutePlanOptions& options);

/// Grid of operator runs for fitting MeasuredCostModel: every join method
/// and the external sort, across input sizes and memory values straddling
/// the analytic model's thresholds.
struct CalibrationGrid {
  std::vector<size_t> left_pages = {6, 12, 24, 48};
  std::vector<size_t> right_pages = {4, 10, 20, 40};
  std::vector<size_t> memories = {3, 4, 6, 9, 16, 32};
  std::vector<size_t> sort_pages = {4, 8, 16, 32, 64};
  double selectivity = 0.02;  ///< join selectivity of the generated pairs
};

/// Runs the grid through the real operators and returns one OperatorSample
/// per run. Deterministic given the Rng seed.
std::vector<OperatorSample> BuildCalibrationCorpus(const CalibrationGrid& grid,
                                                   Rng* rng);

}  // namespace lec

#endif  // LECOPT_EXEC_PLAN_EXECUTOR_H_
