#include "optimizer/algorithm_a.h"

#include <limits>

#include "optimizer/cost_providers.h"
#include "optimizer/system_r.h"

namespace lec {

std::vector<PlanPtr> AlgorithmACandidates(const Query& query,
                                          const Catalog& catalog,
                                          const CostModel& model,
                                          const Distribution& memory,
                                          const OptimizerOptions& options) {
  std::vector<PlanPtr> candidates;
  for (const Bucket& m : memory.buckets()) {
    OptimizeResult r = OptimizeLsc(query, catalog, model, m.value, options);
    bool duplicate = false;
    for (const PlanPtr& c : candidates) {
      if (PlanEquals(c, r.plan)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) candidates.push_back(r.plan);
  }
  return candidates;
}

OptimizeResult OptimizeAlgorithmA(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  const OptimizerOptions& options) {
  WallTimer timer;
  OptimizeResult result;
  std::vector<PlanPtr> candidates;
  for (const Bucket& m : memory.buckets()) {
    OptimizeResult r = OptimizeLsc(query, catalog, model, m.value, options);
    result.candidates_considered += r.candidates_considered;
    result.cost_evaluations += r.cost_evaluations;
    bool duplicate = false;
    for (const PlanPtr& c : candidates) {
      if (PlanEquals(c, r.plan)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) candidates.push_back(r.plan);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const PlanPtr& c : candidates) {
    double ec = ScoreCandidateStatic(c, query, catalog, model, memory,
                                     &result.cost_evaluations);
    if (ec < best) {
      best = ec;
      result.plan = c;
    }
  }
  result.objective = best;
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace lec
