#include "verify/mc_validator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/environment.h"
#include "exec/plan_executor.h"
#include "verify/tolerance.h"

namespace lec::verify {

double ZForConfidence(double confidence) {
  // Two-sided standard-normal quantiles z_{(1+c)/2}.
  if (confidence == 0.80) return 1.2815515655446004;
  if (confidence == 0.90) return 1.6448536269514722;
  if (confidence == 0.95) return 1.959963984540054;
  if (confidence == 0.98) return 2.3263478740408408;
  if (confidence == 0.99) return 2.5758293035489004;
  if (confidence == 0.999) return 3.2905267314918945;
  throw std::invalid_argument(
      "unsupported confidence level (use 0.80/0.90/0.95/0.98/0.99/0.999)");
}

bool CiResult::Covers() const {
  if (sample_stddev == 0) {
    return ApproxEqual(analytic_ec, empirical_mean);
  }
  return analytic_ec >= ci_lo() && analytic_ec <= ci_hi();
}

CiResult ValidatePlanEc(const PlanPtr& plan, const Query& query,
                        const Catalog& catalog, const CostModel& model,
                        const Distribution& memory,
                        const McOptions& options) {
  if (options.samples < 2) {
    throw std::invalid_argument("mc validator needs at least 2 samples");
  }
  if (options.chain != nullptr && options.sample_data_parameters) {
    throw std::invalid_argument(
        "mc validator: no exact analytic reference exists for dynamic "
        "memory combined with sampled data parameters");
  }
  double z = ZForConfidence(options.confidence);

  EnvironmentModel env;
  env.memory = memory;
  if (options.chain != nullptr) env.memory_chain = *options.chain;
  env.sample_data_parameters = options.sample_data_parameters;

  int phases = std::max(CountJoins(plan), 1);
  Rng rng(options.seed);
  // Welford's online mean/variance: numerically stable for the large
  // cost magnitudes the formulas produce.
  double mean = 0;
  double m2 = 0;
  for (size_t i = 0; i < options.samples; ++i) {
    Realization real = env.Sample(query, catalog, phases, &rng);
    double cost = RealizedPlanCost(plan, query, model, real);
    double delta = cost - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (cost - mean);
  }

  CiResult out;
  out.samples = options.samples;
  out.confidence = options.confidence;
  out.empirical_mean = mean;
  out.sample_stddev =
      std::sqrt(m2 / static_cast<double>(options.samples - 1));
  out.half_width =
      z * out.sample_stddev / std::sqrt(static_cast<double>(options.samples));
  if (options.chain != nullptr) {
    out.analytic_ec =
        PlanExpectedCostDynamic(plan, query, catalog, model, *options.chain,
                                memory);
  } else if (options.sample_data_parameters) {
    out.analytic_ec = ExactMultiParamEc(plan, query, catalog, model, memory);
  } else {
    out.analytic_ec =
        PlanExpectedCostStatic(plan, query, catalog, model, memory);
  }
  return out;
}

EscalatedCheck CheckPlanEcWithEscalation(const PlanPtr& plan,
                                         const Query& query,
                                         const Catalog& catalog,
                                         const CostModel& model,
                                         const Distribution& memory,
                                         const McOptions& options) {
  EscalatedCheck out;
  out.ci = ValidatePlanEc(plan, query, catalog, model, memory, options);
  auto materially_off = [](const CiResult& ci) {
    return !ci.Covers() &&
           RelativeError(ci.analytic_ec, ci.empirical_mean) >
               kMcMaterialRelTol;
  };
  if (!out.ci.Covers()) {
    McOptions widened = options;
    widened.samples = options.samples * 16;
    widened.seed = options.seed ^ 0x657363616c617465ULL;  // "escalate"
    out.ci = ValidatePlanEc(plan, query, catalog, model, memory, widened);
    out.escalated = true;
  }
  out.ok = !materially_off(out.ci);
  return out;
}

double ExactMultiParamEc(const PlanPtr& plan, const Query& query,
                         const Catalog& catalog, const CostModel& model,
                         const Distribution& memory,
                         size_t max_combinations) {
  // Gather the independent factors: one distribution per table size, one
  // per predicate selectivity, one for memory.
  std::vector<Distribution> tables;
  tables.reserve(static_cast<size_t>(query.num_tables()));
  for (QueryPos p = 0; p < query.num_tables(); ++p) {
    tables.push_back(catalog.table(query.table(p)).SizeDistribution());
  }
  std::vector<const Distribution*> sels;
  sels.reserve(static_cast<size_t>(query.num_predicates()));
  for (int i = 0; i < query.num_predicates(); ++i) {
    sels.push_back(&query.predicate(i).selectivity);
  }

  double combos = static_cast<double>(memory.size());
  for (const Distribution& d : tables) {
    combos *= static_cast<double>(d.size());
  }
  for (const Distribution* d : sels) {
    combos *= static_cast<double>(d->size());
  }
  if (combos > static_cast<double>(max_combinations)) {
    throw std::invalid_argument(
        "joint support too large for exact multi-parameter enumeration");
  }

  // Odometer over the joint support; probability is the product of the
  // factors' bucket probabilities (independence, as §3.6 assumes).
  size_t axes = tables.size() + sels.size() + 1;
  std::vector<size_t> idx(axes, 0);
  std::vector<size_t> radix(axes);
  for (size_t a = 0; a < tables.size(); ++a) radix[a] = tables[a].size();
  for (size_t a = 0; a < sels.size(); ++a) {
    radix[tables.size() + a] = sels[a]->size();
  }
  radix[axes - 1] = memory.size();

  Realization real;
  real.table_pages.resize(tables.size());
  real.selectivity.resize(sels.size());
  real.memory_by_phase.resize(1);

  double ec = 0;
  while (true) {
    double prob = 1;
    for (size_t a = 0; a < tables.size(); ++a) {
      const Bucket& b = tables[a].bucket(idx[a]);
      real.table_pages[a] = b.value;
      prob *= b.prob;
    }
    for (size_t a = 0; a < sels.size(); ++a) {
      const Bucket& b = sels[a]->bucket(idx[tables.size() + a]);
      real.selectivity[a] = b.value;
      prob *= b.prob;
    }
    const Bucket& mb = memory.bucket(idx[axes - 1]);
    real.memory_by_phase[0] = mb.value;
    prob *= mb.prob;

    ec += prob * RealizedPlanCost(plan, query, model, real);

    size_t a = 0;
    for (; a < axes; ++a) {
      if (++idx[a] < radix[a]) break;
      idx[a] = 0;
    }
    if (a == axes) break;
  }
  return ec;
}

EngineReplay::EngineReplay(const Query& query, const Catalog& catalog,
                           Rng* rng)
    : workload_(BuildChainEngineWorkload(query, catalog, rng)) {}

EngineReplayStats EngineReplay::Replay(const PlanPtr& plan,
                                       const Query& query,
                                       const Distribution& memory,
                                       const MarkovChain* chain,
                                       size_t trials, Rng* rng) const {
  EngineReplayStats out;
  out.trials = trials;
  out.min_io = std::numeric_limits<double>::infinity();
  out.max_io = -std::numeric_limits<double>::infinity();
  size_t phases = static_cast<size_t>(std::max(CountJoins(plan), 1));
  double mean = 0;
  double m2 = 0;
  ExecutePlanOptions exec;
  for (size_t i = 0; i < trials; ++i) {
    if (chain != nullptr) {
      exec.memory_by_phase = chain->SampleTrajectory(memory, phases, rng);
    } else {
      exec.memory_by_phase.assign(phases, memory.Sample(rng));
    }
    ExecutionResult run = ExecutePlan(plan, query, workload_, exec);
    double io = static_cast<double>(run.total_io());
    out.min_io = std::min(out.min_io, io);
    out.max_io = std::max(out.max_io, io);
    double delta = io - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (io - mean);
  }
  out.mean_io = mean;
  out.stddev_io =
      trials > 1 ? std::sqrt(m2 / static_cast<double>(trials - 1)) : 0;
  if (trials == 0) {
    out.min_io = 0;
    out.max_io = 0;
  }
  return out;
}

}  // namespace lec::verify
