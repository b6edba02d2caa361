// Optimizer-side glue over the shared costing-regime policies.
//
// The regime structs themselves (LscCostProvider, LecStaticCostProvider,
// LecDynamicCostProvider, ...) live in cost/cost_policies.h so the
// plan-costing walks and the DP cores dispatch through the SAME types — in
// the spirit of mutable's CRTP CostFunction design, the provider is the
// only point of variation between System R and Algorithm C (§3.3's
// locality claim expressed in the type system). This header adds the
// candidate post-pass Algorithms A and B share.
#ifndef LECOPT_OPTIMIZER_COST_PROVIDERS_H_
#define LECOPT_OPTIMIZER_COST_PROVIDERS_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "cost/cost_policies.h"
#include "optimizer/dp_common.h"

namespace lec {

/// `plans` without repeats (PlanEquals), each kept at its first
/// occurrence.
inline std::vector<PlanPtr> DistinctPlans(const std::vector<PlanPtr>& plans) {
  std::vector<PlanPtr> out;
  for (const PlanPtr& plan : plans) {
    if (std::none_of(out.begin(), out.end(), [&](const PlanPtr& p) {
          return PlanEquals(p, plan);
        })) {
      out.push_back(plan);
    }
  }
  return out;
}

/// The candidate post-pass of Algorithms A and B: keeps in result->plan
/// and result->objective the distinct plan of least static-memory EC
/// (strict <, so the first seen wins ties). Each candidate costs one plan
/// walk per memory bucket (the O((n-1)·b²) term of §3.2), and each walk
/// adds one to result->cost_evaluations per operator.
inline void ChooseLeastExpectedCost(const std::vector<PlanPtr>& plans,
                                    const Query& query,
                                    const Catalog& catalog,
                                    const CostModel& model,
                                    const Distribution& memory,
                                    OptimizeResult* result) {
  double best = std::numeric_limits<double>::infinity();
  for (const PlanPtr& plan : DistinctPlans(plans)) {
    result->cost_evaluations += memory.size() * (CountJoins(plan) + 1);
    double ec = PlanExpectedCostStatic(plan, query, catalog, model, memory);
    if (ec < best) {
      best = ec;
      result->plan = plan;
    }
  }
  result->objective = best;
}

}  // namespace lec

#endif  // LECOPT_OPTIMIZER_COST_PROVIDERS_H_
