// Optimizer-side glue over the shared costing-regime policies.
//
// The regime structs themselves (LscCostProvider, LecStaticCostProvider,
// LecDynamicCostProvider, ...) live in cost/cost_policies.h so the
// plan-costing walks and the DP cores dispatch through the SAME types — in
// the spirit of mutable's CRTP CostFunction design, the provider is the
// only point of variation between System R and Algorithm C (§3.3's
// locality claim expressed in the type system). This header adds the
// candidate-scoring post-pass Algorithms A and B share.
#ifndef LECOPT_OPTIMIZER_COST_PROVIDERS_H_
#define LECOPT_OPTIMIZER_COST_PROVIDERS_H_

#include <cstddef>

#include "cost/cost_policies.h"
#include "optimizer/dp_common.h"

namespace lec {

/// Scores a complete candidate plan under the static-memory EC objective:
/// one plan walk per memory bucket (the O((n-1)·b²) post-pass of §3.2),
/// each walk ticking *cost_evaluations once per operator. The shared
/// candidate-selection post-pass of Algorithms A and B.
inline double ScoreCandidateStatic(const PlanPtr& plan, const Query& query,
                                   const Catalog& catalog,
                                   const CostModel& model,
                                   const Distribution& memory,
                                   size_t* cost_evaluations) {
  *cost_evaluations += memory.size() * (CountJoins(plan) + 1);
  return PlanExpectedCostStatic(plan, query, catalog, model, memory);
}

}  // namespace lec

#endif  // LECOPT_OPTIMIZER_COST_PROVIDERS_H_
