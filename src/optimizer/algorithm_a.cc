#include "optimizer/algorithm_a.h"

#include "optimizer/cost_providers.h"
#include "optimizer/system_r.h"

namespace lec {

std::vector<PlanPtr> AlgorithmACandidates(const Query& query,
                                          const Catalog& catalog,
                                          const CostModel& model,
                                          const Distribution& memory,
                                          const OptimizerOptions& options) {
  std::vector<PlanPtr> plans;
  for (const Bucket& m : memory.buckets()) {
    plans.push_back(OptimizeLsc(query, catalog, model, m.value, options).plan);
  }
  return DistinctPlans(plans);
}

OptimizeResult OptimizeAlgorithmA(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  const OptimizerOptions& options) {
  WallTimer timer;
  OptimizeResult result;
  std::vector<PlanPtr> plans;
  for (const Bucket& m : memory.buckets()) {
    OptimizeResult r = OptimizeLsc(query, catalog, model, m.value, options);
    result.candidates_considered += r.candidates_considered;
    result.cost_evaluations += r.cost_evaluations;
    plans.push_back(r.plan);
  }
  ChooseLeastExpectedCost(plans, query, catalog, model, memory, &result);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace lec
