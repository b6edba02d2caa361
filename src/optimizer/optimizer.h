// The unified optimizer strategy layer: one facade over every algorithm.
//
// The paper's thesis is that LEC optimization is "a relatively small and
// localized change" to a System R optimizer (§3.3); this library grew nine+
// strategies around that observation (LSC, Algorithms A/B/C/D, bushy,
// parametric, randomized, sampling), each historically a free-function
// entry point with its own parameter list. The Optimizer facade routes all
// of them through a single OptimizeRequest -> OptimizeResult API keyed by
// StrategyId, so callers (the serving pipeline, benches, examples,
// future backends) select a strategy by value instead of by linking against
// a specific header. Every result is stamped with wall-time and the
// uniform candidate/evaluation counters. See DESIGN.md, "Strategy
// registry".
#ifndef LECOPT_OPTIMIZER_OPTIMIZER_H_
#define LECOPT_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "cost/explain.h"
#include "dist/markov.h"
#include "dist/simd.h"
#include "optimizer/dp_common.h"
#include "optimizer/system_r.h"

namespace lec {

/// Every optimization strategy the library implements.
enum class StrategyId {
  kLsc,         ///< System R at a point estimate of memory (§2.2, §1.1)
  kAlgorithmA,  ///< per-bucket LSC + expected-cost selection (§3.2)
  kAlgorithmB,  ///< top-c plans per bucket, then EC selection (§3.3)
  kLecStatic,   ///< Algorithm C under a static memory distribution (§3.4)
  kLecDynamic,  ///< Algorithm C under per-phase Markov marginals (§3.5)
  kAlgorithmD,  ///< multi-parameter LEC with size distributions (§3.6)
  kBushyLsc,    ///< bushy plan space, specific-cost objective (§4)
  kBushyLec,    ///< bushy plan space, expected-cost objective (§4)
  kParametric,  ///< per-bucket plan table, start-up lookup (§2.3)
  kRandomized,  ///< iterative improvement under the EC objective
  kSampling,    ///< [SBM93] value-of-information via Algorithm D (§3.6)
};

/// The SIMD tier Optimize pins for `mode` on the calling thread (before
/// the clamp to what the CPU supports): kAuto keeps the ambient tier.
simd::Level SimdLevelFor(SimdMode mode);

/// All strategy ids, in declaration order.
const std::vector<StrategyId>& AllStrategies();

/// Stable snake_case name for CLI / bench / service use ("lec_static", ...).
std::string_view StrategyName(StrategyId id);

/// Inverse of StrategyName; nullopt for unknown names.
std::optional<StrategyId> ParseStrategy(std::string_view name);

/// The one uniform input every strategy consumes. Pointer members are
/// borrowed and must outlive the Optimize call; `memory` is the memory
/// distribution every strategy hedges against (kLsc collapses it to a
/// point estimate). Strategy-specific knobs have sensible defaults and are
/// ignored by strategies that do not use them.
struct OptimizeRequest {
  const Query* query = nullptr;
  const Catalog* catalog = nullptr;
  const CostModel* model = nullptr;
  const Distribution* memory = nullptr;
  OptimizerOptions options;

  /// kLsc: which point estimate of `memory` the traditional optimizer uses.
  PointEstimate lsc_estimate = PointEstimate::kMean;
  /// kAlgorithmB: plans retained per DP node.
  size_t top_c = 3;
  /// kLecDynamic: the memory transition model (required there; `memory` is
  /// the initial distribution).
  const MarkovChain* chain = nullptr;
  /// kRandomized: search determinism and budget.
  uint64_t seed = 20260729;
  int randomized_restarts = 8;
  int randomized_patience = 2;
  /// kSampling: predicate whose selectivity would be sampled.
  int sample_predicate = 0;
};

/// The strategy registry facade. Construction registers every built-in
/// strategy; Register() can add or override entries (the extension seam for
/// future backends). Optimize() is const and thread-compatible: concurrent
/// calls on one Optimizer are safe as long as no thread calls Register().
class Optimizer {
 public:
  using StrategyFn = std::function<OptimizeResult(const OptimizeRequest&)>;

  Optimizer();

  /// Validates the request, routes to the strategy, and stamps
  /// OptimizeResult::elapsed_seconds with the full dispatch span. Throws
  /// std::invalid_argument on null required fields or an unregistered id.
  OptimizeResult Optimize(StrategyId id, const OptimizeRequest& request) const;

  /// Adds or replaces a strategy.
  void Register(StrategyId id, StrategyFn fn);

  bool IsRegistered(StrategyId id) const;
  std::vector<StrategyId> RegisteredStrategies() const;

 private:
  friend class ServePipeline;

  /// Optimize for a caller that already holds the request's RequestKey
  /// (service/plan_cache.h): `request_key` and `request_key_hash` must be
  /// what RequestKey::ComputeInto(id, request, ...) returns under the SIMD
  /// tier the request pins. The serving pipeline builds that key at
  /// admission for coalescing, and hands it here so the worker does not
  /// build it again for the plan cache's request memo.
  OptimizeResult Optimize(StrategyId id, const OptimizeRequest& request,
                          std::string_view request_key,
                          uint64_t request_key_hash) const;

  /// Both Optimize overloads; `key` is null when the caller has no key.
  struct KnownRequestKey {
    std::string_view bytes;
    uint64_t hash = 0;
  };
  OptimizeResult Run(StrategyId id, const OptimizeRequest& request,
                     const KnownRequestKey* key) const;

  std::map<StrategyId, StrategyFn> registry_;
};

/// ExplainPlan over result.plan, carrying the optimizer's recorded wall
/// time and counters into the diagnostics so EXPLAIN output shows how the
/// plan was found, not just what it costs. Lives in the optimizer layer
/// because it marries cost-layer diagnostics with an OptimizeResult.
/// When result.rewrite is set the plan is expressed in the REWRITTEN
/// query's positions — pass result.rewrite->query / ->catalog here, not
/// the originals; the applied passes are rendered into the diagnostics.
PlanDiagnostics ExplainResult(const OptimizeResult& result,
                              const Query& query, const Catalog& catalog,
                              const CostModel& model,
                              const Distribution& memory);

}  // namespace lec

#endif  // LECOPT_OPTIMIZER_OPTIMIZER_H_
