// E21 — Async serving pipeline: coalescing under duplicate bursts, Zipf
// throughput with and without the plan cache, tail latency, and deadline
// degradation.
//
// PR 7's tentpole claims, measured:
//   * a 90%-duplicate burst costs ~one optimization per unique signature:
//     the singleflight table absorbs concurrent duplicates and the shared
//     PlanCache absorbs sequential ones, so plan-cache misses == unique
//     signatures (gated as `coalesce_dup_compute_ratio`, a DETERMINISTIC
//     counter ratio — hard-fail above 1.1);
//   * on a Zipf-repeated corpus the pipeline (coalescing + shared plan
//     cache) beats the same pipeline with neither, which optimizes every
//     request, at equal worker count — gated as the inverse ratio
//     `serve_uncached_over_cached_qps_ratio` (< 1 = reuse wins; hard-fail
//     at >= 1). The uncached side also turns coalescing off: with it on,
//     the burst's duplicates coalesce onto in-flight jobs and the ratio
//     sits at ~1 whichever side has the cache;
//   * tail latency: p99 serve time is recorded (`serve_p99_ms`, informational
//     — raw time is never blessed) and gated as a multiple of one cold
//     optimization (`serve_p99_over_cold_ratio` — mostly queue-shape, not
//     hardware);
//   * zero-headroom deadlines degrade to the fallback strategy with
//     results bit-identical to a direct facade run of that strategy.
//
// Self-timed (no Google Benchmark dependency); every served result is
// checked bit-identical to a sequential facade reference, so the perf
// gate cannot pass on a pipeline that got fast by being wrong.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/generator.h"
#include "service/plan_cache.h"
#include "service/serve_pipeline.h"
#include "util/rng.h"
#include "util/wall_timer.h"

using namespace lec;

namespace {

int g_failures = 0;

void EmitBudget(const char* metric, double value) {
  std::printf("BUDGET %s %.6f\n", metric, value);
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

Workload MakeChain(int n, uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.num_tables = n;
  wopts.shape = JoinGraphShape::kChain;
  wopts.selectivity_spread = 3.0;
  wopts.table_size_spread = 2.0;
  return GenerateWorkload(wopts, &rng);
}

serde::ServeRequest MakeServeRequest(const Workload& w,
                                     const Distribution& memory) {
  serde::ServeRequest request;
  request.strategy = "lec_static";
  request.workload = w;
  request.memory = memory;
  return request;
}

void CheckOutcome(const char* what, const ServeOutcome& out,
                  const OptimizeResult& want) {
  if (out.status != ServeStatus::kOk ||
      Bits(out.result.objective) != Bits(want.objective) ||
      !PlanEquals(out.result.plan, want.plan)) {
    std::printf("!! %s: status=%s served %.17g vs reference %.17g\n", what,
                std::string(ServeStatusName(out.status)).c_str(),
                out.result.objective, want.objective);
    ++g_failures;
  }
}

}  // namespace

int main() {
  bench::Header("E21",
                "async serving pipeline: coalescing, Zipf q/s, p99, deadlines");
  CostModel model;
  Distribution memory({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  Optimizer optimizer;

  // The unique corpus: 16 distinct n=8 chains, plus a sequential facade
  // reference result for each (the bit-identity ground truth).
  constexpr size_t kUnique = 16;
  std::vector<serde::ServeRequest> uniques;
  std::vector<OptimizeResult> reference;
  for (size_t u = 0; u < kUnique; ++u) {
    uniques.push_back(MakeServeRequest(
        MakeChain(8, 300 + static_cast<uint64_t>(u)), memory));
    OptimizeRequest req;
    req.query = &uniques[u].workload.query;
    req.catalog = &uniques[u].workload.catalog;
    req.model = &model;
    req.memory = &uniques[u].memory;
    reference.push_back(optimizer.Optimize(StrategyId::kLecStatic, req));
  }

  // One cold optimization's cost, the yardstick the p99 gate divides by.
  double cold_seconds;
  {
    OptimizeRequest req;
    req.query = &uniques[0].workload.query;
    req.catalog = &uniques[0].workload.catalog;
    req.model = &model;
    req.memory = &uniques[0].memory;
    WallTimer timer;
    for (int i = 0; i < 10; ++i) {
      OptimizeResult r = optimizer.Optimize(StrategyId::kLecStatic, req);
      if (Bits(r.objective) != Bits(reference[0].objective)) ++g_failures;
    }
    cold_seconds = timer.Seconds() / 10;
  }

  // ---- (a) 90%-duplicate burst: compute-per-unique-signature ratio ------
  {
    constexpr size_t kBurstUnique = 10, kRounds = 10;  // 100 reqs, 90% dup
    PlanCache cache;
    ServePipeline::Options popts;
    popts.workers = 2;
    popts.plan_cache = &cache;
    popts.model = &model;
    ServePipeline pipeline(popts);
    std::vector<ServeTicket> tickets;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t u = 0; u < kBurstUnique; ++u) {
        tickets.push_back(pipeline.Submit(uniques[u]));
      }
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      CheckOutcome("burst", tickets[i].Wait(), reference[i % kBurstUnique]);
    }
    ServePipeline::Stats stats = pipeline.stats();
    double ratio = static_cast<double>(cache.stats().misses) /
                   static_cast<double>(kBurstUnique);
    bench::Rule();
    std::printf("duplicate burst, 100 submissions over 10 signatures:\n");
    std::printf("  optimizations        %10zu   (coalesced %zu, cache hits "
                "%zu)\n",
                cache.stats().misses, stats.coalesced, cache.stats().hits);
    std::printf("  computes per unique  %10.2f   (gate: <= 1.1)\n", ratio);
    EmitBudget("coalesce_dup_compute_ratio", ratio);
    if (ratio > 1.1) {
      std::printf("!! duplicate burst recomputed: ratio %.2f > 1.1\n", ratio);
      ++g_failures;
    }

    // Ablation: coalescing off. Sequential duplicates still hit the
    // cache, but concurrent ones race it — informational, not gated
    // (the count depends on scheduling).
    PlanCache ablation_cache;
    ServePipeline::Options aopts = popts;
    aopts.coalesce = false;
    aopts.plan_cache = &ablation_cache;
    ServePipeline ablation(aopts);
    std::vector<ServeTicket> atickets;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t u = 0; u < kBurstUnique; ++u) {
        atickets.push_back(ablation.Submit(uniques[u]));
      }
    }
    for (size_t i = 0; i < atickets.size(); ++i) {
      CheckOutcome("burst-ablation", atickets[i].Wait(),
                   reference[i % kBurstUnique]);
    }
    std::printf("  coalescing OFF       %10zu optimizations for the same "
                "burst\n",
                ablation_cache.stats().misses);
  }

  // ---- (b) Zipf corpus: pipeline with vs without a plan cache -----------
  // 200 requests, ranks drawn once (seeded) from a Zipf(1.1) over the 16
  // uniques — the traffic shape where coalescing + caching pay.
  constexpr size_t kRequests = 200;
  std::vector<size_t> picks(kRequests);
  {
    std::vector<double> cdf(kUnique);
    double total = 0;
    for (size_t k = 0; k < kUnique; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
      cdf[k] = total;
    }
    Rng rng(20260807);
    for (size_t i = 0; i < kRequests; ++i) {
      double x = rng.Uniform01() * total;
      picks[i] = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
      if (picks[i] >= kUnique) picks[i] = kUnique - 1;
    }
  }
  // Serves the Zipf corpus through a `workers`-worker pipeline with the
  // given plan cache, coalescing on iff there is one; returns q/s and, in
  // *p99, the p99 serve time.
  auto serve_zipf = [&](int workers, PlanCache* cache, double* p99) {
    ServePipeline::Options popts;
    popts.workers = workers;
    popts.coalesce = cache != nullptr;
    popts.plan_cache = cache;
    popts.model = &model;
    ServePipeline pipeline(popts);
    WallTimer timer;
    std::vector<ServeTicket> tickets;
    tickets.reserve(kRequests);
    for (size_t pick : picks) tickets.push_back(pipeline.Submit(uniques[pick]));
    std::vector<double> latencies;
    latencies.reserve(kRequests);
    for (size_t i = 0; i < tickets.size(); ++i) {
      const ServeOutcome& out = tickets[i].Wait();
      CheckOutcome("zipf", out, reference[picks[i]]);
      latencies.push_back(out.serve_seconds);
    }
    double qps = static_cast<double>(kRequests) / timer.Seconds();
    std::sort(latencies.begin(), latencies.end());
    *p99 = latencies[(latencies.size() - 1) * 99 / 100];
    return qps;
  };

  bench::Rule();
  std::printf("Zipf(1.1) corpus, 200 requests over 16 signatures:\n");
  std::printf("  %-28s %12s %12s %8s\n", "", "uncached q/s", "cached q/s",
              "speedup");
  double gate_ratio = 0, p99_seconds = 0;
  for (int workers : {1, 2, 4}) {
    double uncached_p99 = 0, p99 = 0;
    double uncached_qps = serve_zipf(workers, nullptr, &uncached_p99);
    PlanCache cache;
    double cached_qps = serve_zipf(workers, &cache, &p99);
    std::printf("  workers=%d %18s %12.0f %12.0f %7.1fx   (p99 %.2f ms)\n",
                workers, "", uncached_qps, cached_qps,
                cached_qps / uncached_qps, p99 * 1e3);
    if (workers == 2) {
      gate_ratio = uncached_qps / cached_qps;
      p99_seconds = p99;
    }
  }
  std::printf("  uncached/cached q/s ratio at workers=2: %.4f "
              "(gate: < 1 — reuse must win)\n",
              gate_ratio);
  EmitBudget("serve_uncached_over_cached_qps_ratio", gate_ratio);
  if (gate_ratio >= 1.0) {
    std::printf("!! the cached pipeline is not faster than the uncached one\n");
    ++g_failures;
  }
  EmitBudget("serve_p99_ms", p99_seconds * 1e3);
  EmitBudget("serve_p99_over_cold_ratio", p99_seconds / cold_seconds);

  // ---- (c) deadline degradation: bit-identical fallback results ---------
  {
    ServePipeline::Options popts;
    popts.workers = 2;
    popts.model = &model;
    popts.min_degrade_headroom_seconds = 1e9;  // any finite budget degrades
    ServePipeline pipeline(popts);
    OptimizeRequest req;
    req.query = &uniques[0].workload.query;
    req.catalog = &uniques[0].workload.catalog;
    req.model = &model;
    req.memory = &uniques[0].memory;
    OptimizeResult fallback = optimizer.Optimize(StrategyId::kLsc, req);
    size_t degraded = 0;
    for (int i = 0; i < 8; ++i) {
      ServeOutcome out = pipeline.Submit(uniques[0], 0.001).Wait();
      CheckOutcome("degraded", out, fallback);
      if (out.degraded) ++degraded;
    }
    bench::Rule();
    std::printf("deadline degradation (1 ms budget, headroom floor 1e9 s):\n");
    std::printf("  %zu/8 serves degraded to lsc, all bit-identical to a "
                "direct lsc run\n",
                degraded);
    if (degraded != 8) {
      std::printf("!! expected all 8 serves to degrade\n");
      ++g_failures;
    }
  }

  if (g_failures > 0) {
    std::printf("\n%d FAILURES — perf numbers above are not trustworthy\n",
                g_failures);
    return 1;
  }
  std::printf("\nall served results bit-identical to sequential references\n");
  return 0;
}
