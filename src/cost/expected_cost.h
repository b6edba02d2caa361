// Expected-cost evaluation: EC(p) = Σ_v C(p, v) Pr(v)  (§3.1).
//
// Two levels are provided. Operator-level functions compute the expected
// cost of a single join or sort under distributions over its inputs — the
// building block of Algorithms C and D. Plan-level functions cost an entire
// left-deep plan under a specific parameter realization, a static memory
// distribution, or a per-phase (dynamic, §3.5) sequence of memory marginals.
//
// The operator-level functions here are the *naive* bucket enumerations
// (O(b_M · b_|A| · b_|B|) in the worst case); the O(b_M + b_|A| + b_|B|)
// algorithms of §3.6.1/3.6.2 live in fast_expected_cost.h and are verified
// against these.
#ifndef LECOPT_COST_EXPECTED_COST_H_
#define LECOPT_COST_EXPECTED_COST_H_

#include <vector>

#include "catalog/catalog.h"
#include "cost/cost_model.h"
#include "dist/distribution.h"
#include "dist/markov.h"
#include "plan/plan.h"
#include "query/query.h"

namespace lec {

/// A concrete assignment of values to every uncertain parameter — one point
/// v of the paper's parameter space V. Sampled by the execution simulator.
struct Realization {
  /// Pages of each base relation, indexed by query position.
  std::vector<double> table_pages;
  /// Selectivity of each predicate, indexed by predicate id.
  std::vector<double> selectivity;
  /// Available memory in each join phase (phase t = the join producing a
  /// subset of size t+1; see §3.5). A static environment repeats one value.
  std::vector<double> memory_by_phase;

  /// Realization fixing everything at its catalog/query mean and memory at
  /// `memory` in all phases.
  static Realization AtMeans(const Query& query, const Catalog& catalog,
                             double memory);
};

// ---------------------------------------------------------------------------
// Operator-level expected costs (naive enumeration).
// ---------------------------------------------------------------------------

/// EC of one join with fixed input sizes, memory distributed: one pass over
/// the memory buckets. The workhorse of Algorithm C.
double ExpectedJoinCostFixedSizes(const CostModel& model, JoinMethod method,
                                  double left_pages, double right_pages,
                                  const Distribution& memory,
                                  bool left_sorted = false,
                                  bool right_sorted = false);

// DistView twins of the operator-level enumerations below/above: identical
// summation order (the Distribution overloads are thin AsView wrappers), no
// Distribution materialization — the kernel hot path of Algorithm D and the
// cost_policies.h providers.
double ExpectedJoinCostFixedSizesView(const CostModel& model,
                                      JoinMethod method, double left_pages,
                                      double right_pages, DistView memory,
                                      bool left_sorted = false,
                                      bool right_sorted = false);
double ExpectedJoinCostView(const CostModel& model, JoinMethod method,
                            DistView left, DistView right, DistView memory,
                            bool left_sorted = false,
                            bool right_sorted = false);
double ExpectedSortCostFixedSizeView(const CostModel& model, double pages,
                                     DistView memory);
double ExpectedSortCostView(const CostModel& model, DistView pages,
                            DistView memory);

/// EC of one join with independent distributions over both input sizes and
/// memory: full triple enumeration (the O(b_M b_|B_j| b_|A_j|) baseline of
/// §3.6). The workhorse of Algorithm D; also the oracle for the fast paths.
double ExpectedJoinCost(const CostModel& model, JoinMethod method,
                        const Distribution& left, const Distribution& right,
                        const Distribution& memory, bool left_sorted = false,
                        bool right_sorted = false);

/// EC of an external sort with fixed size.
double ExpectedSortCostFixedSize(const CostModel& model, double pages,
                                 const Distribution& memory);

/// EC of an external sort with distributed size and memory.
double ExpectedSortCost(const CostModel& model, const Distribution& pages,
                        const Distribution& memory);

// ---------------------------------------------------------------------------
// Plan-level costing.
// ---------------------------------------------------------------------------

/// Cost of a full plan under one realization: sizes are recomputed bottom-up
/// from the realization (not trusted from plan annotations) and each join or
/// sort is charged at its phase's memory. This is C(p, v).
double RealizedPlanCost(const PlanPtr& plan, const Query& query,
                        const CostModel& model, const Realization& real);

/// C(p, v) with all data parameters at their means and one fixed memory —
/// what the traditional LSC optimizer believes the plan costs.
double PlanCostAtMemory(const PlanPtr& plan, const Query& query,
                        const Catalog& catalog, const CostModel& model,
                        double memory);

/// EC(p) with sizes at means and memory ~ `memory` held constant for the
/// whole execution (the static case of §3.2–3.4).
double PlanExpectedCostStatic(const PlanPtr& plan, const Query& query,
                              const Catalog& catalog, const CostModel& model,
                              const Distribution& memory);

/// EC(p) with memory evolving between phases per the Markov model (§3.5):
/// phase t is charged under chain.MarginalAfter(initial, t-1). By linearity
/// of expectation this is exact regardless of cross-phase correlation.
double PlanExpectedCostDynamic(const PlanPtr& plan, const Query& query,
                               const Catalog& catalog, const CostModel& model,
                               const MarkovChain& chain,
                               const Distribution& initial);

/// EC(p) under independent distributions over *all* parameters: memory
/// (static), every table size, every predicate selectivity (§3.6). Size
/// distributions are propagated bottom-up with at most `size_buckets`
/// buckets per node (§3.6.3). This is the full-fidelity plan evaluator
/// matching Algorithm D's view of the world.
double PlanExpectedCostMultiParam(const PlanPtr& plan, const Query& query,
                                  const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  size_t size_buckets);

}  // namespace lec

#endif  // LECOPT_COST_EXPECTED_COST_H_
