// Monte-Carlo ground-truthing of analytic expected costs.
//
// EC(p) = Σ_v C(p, v)·Pr(v) (§3.1) is an expectation, so it is checkable
// by simulation: draw parameter realizations v from the same bucketed
// distributions the optimizer hedged against, evaluate C(p, v) for each,
// and the sample mean must agree with the analytic EC up to sampling error.
// The validator quantifies "up to": a CLT confidence interval
// mean ± z_c · s/√N, which must cover the analytic value whenever the
// analytic computation is exact for the sampled process — static memory
// (§3.2–3.4), Markov-dynamic memory (§3.5, exact by linearity of
// expectation), and full multi-parameter sampling checked against the
// *joint-enumeration* EC below (the rebucketed PlanExpectedCostMultiParam
// is deliberately approximate; its error is measured, not assumed away).
//
// A second entry point replays plans through the plan executor
// (exec/plan_executor.h) across sampled memory environments — ground truth
// for the model's *shape* (measured page I/O), not its exact values.
#ifndef LECOPT_VERIFY_MC_VALIDATOR_H_
#define LECOPT_VERIFY_MC_VALIDATOR_H_

#include <cstddef>
#include <cstdint>

#include "cost/cost_model.h"
#include "cost/expected_cost.h"
#include "dist/markov.h"
#include "exec/engine_simulator.h"
#include "util/rng.h"

namespace lec::verify {

/// z-quantile for a two-sided confidence level; supports the standard
/// levels 0.80, 0.90, 0.95, 0.98, 0.99, 0.999 and throws
/// std::invalid_argument otherwise (no closed-form inverse erf in the
/// standard library, and verification has no business inventing levels).
double ZForConfidence(double confidence);

struct McOptions {
  size_t samples = 2000;
  double confidence = 0.99;
  uint64_t seed = 20260729;
  /// Also sample table sizes and predicate selectivities from their
  /// catalog/query distributions (§3.6's multi-parameter world). The
  /// analytic reference then switches to ExactMultiParamEc. Incompatible
  /// with `chain` (the library has no exact dynamic multi-parameter EC to
  /// check against).
  bool sample_data_parameters = false;
  /// When set, memory evolves between phases per this Markov chain (§3.5)
  /// and the analytic reference is PlanExpectedCostDynamic.
  const MarkovChain* chain = nullptr;
};

/// Outcome of one CI check.
struct CiResult {
  double analytic_ec = 0;    ///< the value being validated
  double empirical_mean = 0;
  double sample_stddev = 0;  ///< s, with Bessel's correction
  double half_width = 0;     ///< z_c · s / √N
  size_t samples = 0;
  double confidence = 0;

  double ci_lo() const { return empirical_mean - half_width; }
  double ci_hi() const { return empirical_mean + half_width; }
  /// Does the CI cover the analytic EC? Degenerate runs (zero sample
  /// variance, e.g. a point-mass environment) fall back to a relative
  /// comparison at kSummationReassociationRelTol.
  bool Covers() const;
};

/// Samples `options.samples` realizations, evaluates C(p, v) for each, and
/// returns the CI against the regime's analytic EC. Throws
/// std::invalid_argument when both `chain` and `sample_data_parameters`
/// are requested.
CiResult ValidatePlanEc(const PlanPtr& plan, const Query& query,
                        const Catalog& catalog, const CostModel& model,
                        const Distribution& memory, const McOptions& options);

/// A CI miss only signals a bug when it is also materially far from the
/// mean: skewed cost distributions under-cover at small N, and gates that
/// run thousands of intervals (nightly fuzz, the E17 bench) would
/// otherwise false-alarm on pure chance. 0.5% is far below any real EC
/// bug (a regime jump is 2-3x) and far above converged sampling noise.
inline constexpr double kMcMaterialRelTol = 5e-3;

/// Outcome of the shared gate policy.
struct EscalatedCheck {
  CiResult ci;            ///< the deciding run (escalated one if it ran)
  bool escalated = false; ///< the 16x resample was needed
  bool ok = false;        ///< no violation under the policy
};

/// The one Monte-Carlo gate policy (fuzz invariant I6 and the E17 bench):
/// run ValidatePlanEc; on a strict CI miss, re-sample with a 16x budget
/// and an independent seed; flag a violation only if the escalated run
/// still misses AND deviates more than kMcMaterialRelTol relative. A real
/// analytic-EC bug is a persistent bias and survives both filters.
EscalatedCheck CheckPlanEcWithEscalation(const PlanPtr& plan,
                                         const Query& query,
                                         const Catalog& catalog,
                                         const CostModel& model,
                                         const Distribution& memory,
                                         const McOptions& options);

/// The exact §3.6 expected cost under independent bucketed distributions
/// over every table size, every selectivity, and (static) memory, computed
/// by enumerating the full joint support — no rebucketing, no propagation
/// approximation. The reference that both the MC validator and Algorithm
/// D's bucketed evaluator are graded against. Throws std::invalid_argument
/// when the joint support exceeds `max_combinations` (it grows as the
/// product of all bucket counts; keep queries small).
double ExactMultiParamEc(const PlanPtr& plan, const Query& query,
                         const Catalog& catalog, const CostModel& model,
                         const Distribution& memory,
                         size_t max_combinations = size_t{1} << 22);

/// Summary of engine-measured I/O across sampled memory environments.
struct EngineReplayStats {
  double mean_io = 0;
  double stddev_io = 0;
  double min_io = 0;
  double max_io = 0;
  size_t trials = 0;
};

/// One materialized synthetic dataset for a chain query, reused across
/// plans and trials so comparisons are paired (same data, same memory
/// draws ⇒ differences are the plans').
class EngineReplay {
 public:
  /// Materializes data via BuildChainEngineWorkload (chain queries only —
  /// see engine_simulator.h for the scope contract; use a scaled-down
  /// catalog).
  EngineReplay(const Query& query, const Catalog& catalog, Rng* rng);

  /// Executes `plan` under `trials` sampled memory environments (static
  /// draws from `memory`, or per-phase trajectories when `chain` is set)
  /// and returns measured-I/O statistics. Deterministic given the Rng
  /// state.
  EngineReplayStats Replay(const PlanPtr& plan, const Query& query,
                           const Distribution& memory,
                           const MarkovChain* chain, size_t trials,
                           Rng* rng) const;

  const EngineWorkload& workload() const { return workload_; }

 private:
  EngineWorkload workload_;
};

}  // namespace lec::verify

#endif  // LECOPT_VERIFY_MC_VALIDATOR_H_
