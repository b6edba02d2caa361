#include "optimizer/optimizer.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "dist/simd.h"
#include "optimizer/algorithm_a.h"
#include "optimizer/algorithm_b.h"
#include "optimizer/algorithm_c.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/bushy.h"
#include "optimizer/parametric.h"
#include "optimizer/randomized.h"
#include "optimizer/sampling.h"
#include "rewrite/rewrite.h"
#include "service/plan_cache.h"
#include "util/rng.h"

namespace lec {

namespace {

struct StrategyInfo {
  StrategyId id;
  std::string_view name;
};

constexpr StrategyInfo kStrategyInfo[] = {
    {StrategyId::kLsc, "lsc"},
    {StrategyId::kAlgorithmA, "algorithm_a"},
    {StrategyId::kAlgorithmB, "algorithm_b"},
    {StrategyId::kLecStatic, "lec_static"},
    {StrategyId::kLecDynamic, "lec_dynamic"},
    {StrategyId::kAlgorithmD, "algorithm_d"},
    {StrategyId::kBushyLsc, "bushy_lsc"},
    {StrategyId::kBushyLec, "bushy_lec"},
    {StrategyId::kParametric, "parametric"},
    {StrategyId::kRandomized, "randomized"},
    {StrategyId::kSampling, "sampling"},
};

void RequireCore(const OptimizeRequest& r) {
  if (r.query == nullptr || r.catalog == nullptr || r.model == nullptr ||
      r.memory == nullptr) {
    throw std::invalid_argument(
        "OptimizeRequest needs query, catalog, model and memory");
  }
}

/// Lends the calling thread's RequestKey buffer to one Optimize call, so
/// building the key reuses its capacity instead of allocating. A nested
/// Optimize on the same thread (a registered strategy may call the
/// facade) borrows an empty buffer instead of clobbering this one.
class RequestKeyBuffer {
 public:
  RequestKeyBuffer() : bytes(std::exchange(Pool(), std::string())) {}
  ~RequestKeyBuffer() {
    if (bytes.capacity() > Pool().capacity()) Pool() = std::move(bytes);
  }
  RequestKeyBuffer(const RequestKeyBuffer&) = delete;
  RequestKeyBuffer& operator=(const RequestKeyBuffer&) = delete;

  std::string bytes;

 private:
  static std::string& Pool() {
    thread_local std::string pool;
    return pool;
  }
};

}  // namespace

simd::Level SimdLevelFor(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return simd::ActiveLevel();  // keep whatever is ambient
    case SimdMode::kScalar:
      return simd::Level::kScalar;
    case SimdMode::kSse2:
      return simd::Level::kSse2;
    case SimdMode::kAvx2:
      return simd::Level::kAvx2;
  }
  throw std::invalid_argument("unknown SimdMode");
}

const std::vector<StrategyId>& AllStrategies() {
  static const std::vector<StrategyId> all = [] {
    std::vector<StrategyId> v;
    for (const StrategyInfo& info : kStrategyInfo) v.push_back(info.id);
    return v;
  }();
  return all;
}

std::string_view StrategyName(StrategyId id) {
  for (const StrategyInfo& info : kStrategyInfo) {
    if (info.id == id) return info.name;
  }
  throw std::invalid_argument("unknown StrategyId");
}

std::optional<StrategyId> ParseStrategy(std::string_view name) {
  for (const StrategyInfo& info : kStrategyInfo) {
    if (info.name == name) return info.id;
  }
  return std::nullopt;
}

Optimizer::Optimizer() {
  Register(StrategyId::kLsc, [](const OptimizeRequest& r) {
    return OptimizeLscAtEstimate(*r.query, *r.catalog, *r.model, *r.memory,
                                 r.lsc_estimate, r.options);
  });
  Register(StrategyId::kAlgorithmA, [](const OptimizeRequest& r) {
    return OptimizeAlgorithmA(*r.query, *r.catalog, *r.model, *r.memory,
                              r.options);
  });
  Register(StrategyId::kAlgorithmB, [](const OptimizeRequest& r) {
    return OptimizeAlgorithmB(*r.query, *r.catalog, *r.model, *r.memory,
                              r.top_c, r.options);
  });
  Register(StrategyId::kLecStatic, [](const OptimizeRequest& r) {
    return OptimizeLecStatic(*r.query, *r.catalog, *r.model, *r.memory,
                             r.options);
  });
  Register(StrategyId::kLecDynamic, [](const OptimizeRequest& r) {
    if (r.chain == nullptr) {
      throw std::invalid_argument("lec_dynamic needs a MarkovChain");
    }
    return OptimizeLecDynamic(*r.query, *r.catalog, *r.model, *r.chain,
                              *r.memory, r.options);
  });
  Register(StrategyId::kAlgorithmD, [](const OptimizeRequest& r) {
    return OptimizeAlgorithmD(*r.query, *r.catalog, *r.model, *r.memory,
                              r.options);
  });
  Register(StrategyId::kBushyLsc, [](const OptimizeRequest& r) {
    return OptimizeBushyLsc(*r.query, *r.catalog, *r.model, r.memory->Mean(),
                            r.options);
  });
  Register(StrategyId::kBushyLec, [](const OptimizeRequest& r) {
    return OptimizeBushyLec(*r.query, *r.catalog, *r.model, *r.memory,
                            r.options);
  });
  Register(StrategyId::kParametric, [](const OptimizeRequest& r) {
    // The plan table is the strategy's real product; as an OptimizeResult
    // it reports the start-up lookup EC as objective and the plan compiled
    // for the distribution's mean as the representative plan.
    ParametricPlanSet set = ParametricPlanSet::Compile(
        *r.query, *r.catalog, *r.model, *r.memory, r.options);
    OptimizeResult result;
    result.plan = set.PlanFor(r.memory->Mean());
    result.objective = ParametricStartupExpectedCost(set, *r.query,
                                                     *r.catalog, *r.model,
                                                     *r.memory);
    result.candidates_considered = set.candidates_considered();
    result.cost_evaluations = set.cost_evaluations();
    return result;
  });
  Register(StrategyId::kRandomized, [](const OptimizeRequest& r) {
    RandomizedOptions ropts;
    ropts.restarts = r.randomized_restarts;
    ropts.patience = r.randomized_patience;
    ropts.plan_options = r.options;
    Rng rng(r.seed);
    return OptimizeRandomizedLec(*r.query, *r.catalog, *r.model, *r.memory,
                                 &rng, ropts);
  });
  Register(StrategyId::kSampling, [](const OptimizeRequest& r) {
    // Value-of-information analysis: the plan is Algorithm D's (what runs
    // when sampling is skipped); the objective is the EVPI of the probed
    // predicate — what perfect knowledge of it would save.
    SamplingDecision decision =
        EvaluateSampling(*r.query, *r.catalog, *r.model, *r.memory,
                         r.sample_predicate, r.options);
    OptimizeResult result;
    result.plan = decision.plan_without_sampling;
    result.objective = decision.Evpi();
    result.candidates_considered = decision.candidates_considered;
    result.cost_evaluations = decision.cost_evaluations;
    return result;
  });
}

OptimizeResult Optimizer::Optimize(StrategyId id,
                                   const OptimizeRequest& request) const {
  return Run(id, request, nullptr);
}

OptimizeResult Optimizer::Optimize(StrategyId id,
                                   const OptimizeRequest& request,
                                   std::string_view request_key,
                                   uint64_t request_key_hash) const {
  KnownRequestKey key{request_key, request_key_hash};
  return Run(id, request, &key);
}

OptimizeResult Optimizer::Run(StrategyId id, const OptimizeRequest& request,
                              const KnownRequestKey* known_key) const {
  WallTimer timer;
  RequireCore(request);
  auto it = registry_.find(id);
  if (it == registry_.end()) {
    throw std::invalid_argument("strategy not registered: " +
                                std::string(StrategyName(id)));
  }
  // Pin the SIMD tier for this whole optimization (clamped to what the
  // CPU supports; dist/simd.h). Applied BEFORE the plan-cache lookup so
  // QuerySignature::Compute records the tier the result is computed at.
  simd::ScopedLevel simd_scope(SimdLevelFor(request.options.simd_mode));
  // The logical rewrite pipeline, also BEFORE the plan-cache lookup: the
  // signature is computed on the rewritten (canonicalized) request, which
  // is what lets relabeled duplicates share one entry. The strategy below
  // then optimizes the rewritten query, so the returned plan is in
  // canonical positions; `outcome` (stamped on the result, hits and misses
  // alike) carries the map back to the caller's labels.
  //
  // With a cache attached, a repeat of a raw request skips both the
  // rewrite and the signature: its RequestKey finds the alias an earlier
  // identical request left on the canonical entry, and LookupRequest
  // serves that entry with the stored outcome (PlanCache, "Request memo").
  // On a memo miss the alias rides along into Lookup/Insert.
  OptimizeRequest effective = request;
  std::shared_ptr<const rewrite::RewriteOutcome> outcome;
  PlanCache* cache = request.options.plan_cache;
  RequestKeyBuffer buffer;
  std::optional<PlanCache::RequestAlias> alias;
  if (request.options.rewrite_mode == RewriteMode::kOn) {
    if (cache != nullptr) {
      KnownRequestKey key;
      if (known_key != nullptr) {
        key = *known_key;
      } else {
        key.hash = RequestKey::ComputeInto(id, request, &buffer.bytes);
        key.bytes = buffer.bytes;
      }
      if (std::optional<OptimizeResult> hit =
              cache->LookupRequest(key.bytes, key.hash)) {
        hit->elapsed_seconds = timer.Seconds();
        return *std::move(hit);
      }
      alias.emplace();
      alias->key = key.bytes;
      alias->key_hash = key.hash;
    }
    outcome = std::make_shared<rewrite::RewriteOutcome>(
        rewrite::StandardPassManager().Run(*request.query, *request.catalog,
                                           request.options.size_buckets));
    effective.query = &outcome->query;
    effective.catalog = &outcome->catalog;
    if (alias) alias->rewrite = outcome;
  }
  // The plan-cache fast path. The signature keys the registry's built-in
  // strategy semantics; a caller that Register()s a different function
  // under an existing id must not share a cache across the swap (results
  // would be served from the old semantics — Clear() it).
  if (cache != nullptr) {
    const PlanCache::RequestAlias* attach = alias ? &*alias : nullptr;
    QuerySignature sig = QuerySignature::Compute(id, effective);
    if (std::optional<OptimizeResult> hit = cache->Lookup(sig, attach)) {
      // Bit-identical to recompute by the PlanCache contract; only the
      // wall time is the serving call's own.
      hit->rewrite = outcome;
      hit->elapsed_seconds = timer.Seconds();
      return *std::move(hit);
    }
    OptimizeResult result = it->second(effective);
    result.rewrite = outcome;
    result.elapsed_seconds = timer.Seconds();
    cache->Insert(sig, result, attach);
    return result;
  }
  OptimizeResult result = it->second(effective);
  result.rewrite = outcome;
  result.elapsed_seconds = timer.Seconds();
  return result;
}

void Optimizer::Register(StrategyId id, StrategyFn fn) {
  registry_[id] = std::move(fn);
}

bool Optimizer::IsRegistered(StrategyId id) const {
  return registry_.find(id) != registry_.end();
}

std::vector<StrategyId> Optimizer::RegisteredStrategies() const {
  std::vector<StrategyId> out;
  out.reserve(registry_.size());
  for (const auto& [id, fn] : registry_) out.push_back(id);
  return out;
}

PlanDiagnostics ExplainResult(const OptimizeResult& result,
                              const Query& query, const Catalog& catalog,
                              const CostModel& model,
                              const Distribution& memory) {
  PlanDiagnostics out =
      ExplainPlan(result.plan, query, catalog, model, memory);
  out.optimize_seconds = result.elapsed_seconds;
  out.candidates_considered = result.candidates_considered;
  out.cost_evaluations = result.cost_evaluations;
  if (result.rewrite != nullptr) {
    for (const rewrite::PassCounters& c : result.rewrite->counters) {
      if (c.applied > 0) {
        out.rewrite_passes.push_back(c.name + " x" +
                                     std::to_string(c.applied));
      }
    }
  }
  return out;
}

}  // namespace lec
