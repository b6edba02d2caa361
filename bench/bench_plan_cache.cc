// E19 — Plan-cache serving: cold vs warm latency and hit-path speedup.
//
// PR 5's tentpole claims, measured:
//   * a PlanCache hit (signature + sharded lookup + result copy) beats a
//     cold lec_static optimization of the n=10 chain workload by >= 12x
//     (the bar was 20x before PR 10 halved the cold path itself);
//   * through the serving pipeline, a warm shared cache turns a
//     repeated-query corpus into pure hits, multiplying throughput;
//   * snapshot save -> load -> serve round-trips in milliseconds and the
//     served results are bit-identical to recompute (verified here, so the
//     perf gate cannot pass on a cache that got fast by being wrong).
//
// Self-timed (no Google Benchmark dependency) so the binary always builds:
// it feeds the perf-budget gate. The gated metric is the RATIO
// warm-hit-time / cold-optimize-time (hardware-stable; smaller = better;
// the acceptance bar of >= 12x speedup means the ratio must stay <= 0.08).
// Raw microseconds are printed for humans but never gated.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
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

void CheckBitIdentical(const char* what, const OptimizeResult& got,
                       const OptimizeResult& want) {
  if (Bits(got.objective) != Bits(want.objective) ||
      !PlanEquals(got.plan, want.plan)) {
    std::printf("!! %s: served %.17g vs recompute %.17g (plans %s)\n", what,
                got.objective, want.objective,
                PlanEquals(got.plan, want.plan) ? "equal" : "DIFFER");
    ++g_failures;
  }
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

struct ServedRun {
  std::vector<double> objectives;  ///< indexed like the corpus
  double queries_per_sec = 0;
};

/// Serves `corpus` through a one-worker pipeline without coalescing, so
/// every request reaches `cache` (null: every request optimizes).
ServedRun Serve(const std::vector<serde::ServeRequest>& corpus,
                PlanCache* cache, const CostModel& model) {
  ServePipeline::Options popts;
  popts.workers = 1;
  popts.coalesce = false;
  popts.plan_cache = cache;
  popts.model = &model;
  ServePipeline pipeline(popts);
  WallTimer timer;
  std::vector<ServeTicket> tickets;
  tickets.reserve(corpus.size());
  for (const serde::ServeRequest& r : corpus) {
    tickets.push_back(pipeline.Submit(r));
  }
  ServedRun run;
  for (const ServeTicket& t : tickets) {
    const ServeOutcome& out = t.Wait();
    if (out.status != ServeStatus::kOk) {
      std::printf("!! serve failed: %s\n", out.error.c_str());
      ++g_failures;
    }
    run.objectives.push_back(out.result.objective);
  }
  run.queries_per_sec =
      static_cast<double>(corpus.size()) / timer.Seconds();
  return run;
}

/// Mean seconds per call of `fn` over one timed loop of `iters` calls.
template <typename F>
double TimeSeconds(size_t iters, F&& fn) {
  WallTimer timer;
  for (size_t i = 0; i < iters; ++i) fn();
  return timer.Seconds() / static_cast<double>(iters);
}

}  // namespace

int main() {
  bench::Header("E19", "plan-cache serving: cold vs warm, snapshot restart");
  CostModel model;
  Distribution memory({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  Optimizer optimizer;

  // ---- (a) single-request hit path vs cold optimization, n = 10 chain ----
  Workload chain10 = MakeChain(10, 20260729);
  OptimizeRequest req;
  req.query = &chain10.query;
  req.catalog = &chain10.catalog;
  req.model = &model;
  req.memory = &memory;

  OptimizeResult cold_result = optimizer.Optimize(StrategyId::kLecStatic, req);
  double cold_seconds = TimeSeconds(20, [&] {
    OptimizeResult r = optimizer.Optimize(StrategyId::kLecStatic, req);
    if (r.objective != cold_result.objective) ++g_failures;
  });

  PlanCache cache;
  OptimizeRequest cached_req = req;
  cached_req.options.plan_cache = &cache;
  OptimizeResult first = optimizer.Optimize(StrategyId::kLecStatic,
                                            cached_req);  // fill
  CheckBitIdentical("plan-cache fill", first, cold_result);
  double hit_seconds = TimeSeconds(2000, [&] {
    OptimizeResult r = optimizer.Optimize(StrategyId::kLecStatic, cached_req);
    if (r.objective != cold_result.objective) ++g_failures;
  });
  OptimizeResult hot = optimizer.Optimize(StrategyId::kLecStatic, cached_req);
  CheckBitIdentical("plan-cache hit", hot, cold_result);

  double ratio = hit_seconds / cold_seconds;
  bench::Rule();
  std::printf("n=10 chain, lec_static:\n");
  std::printf("  cold optimize        %10.1f us\n", cold_seconds * 1e6);
  std::printf("  warm cache hit       %10.1f us   (signature + lookup + copy)\n",
              hit_seconds * 1e6);
  std::printf("  hit-path speedup     %10.1fx  (ratio %.4f; gate: <= 0.08)\n",
              1.0 / ratio, ratio);
  EmitBudget("plan_cache_warm_hit_ratio_n10", ratio);

  // ---- (b) serving pipeline over a repeated-query corpus, cold vs warm --
  std::vector<serde::ServeRequest> corpus;
  for (int i = 0; i < 64; ++i) {
    serde::ServeRequest request;
    request.strategy = "lec_static";
    request.workload = MakeChain(8, 100 + static_cast<uint64_t>(i % 8));
    request.memory = memory;
    corpus.push_back(std::move(request));
  }

  ServedRun cold_run = Serve(corpus, nullptr, model);
  PlanCache shared_cache;
  Serve(corpus, &shared_cache, model);  // warm the cache (8 distinct shapes)
  ServedRun warm_run = Serve(corpus, &shared_cache, model);
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (Bits(cold_run.objectives[i]) != Bits(warm_run.objectives[i])) {
      std::printf("!! served objective %zu differs warm vs cold\n", i);
      ++g_failures;
    }
  }
  bench::Rule();
  std::printf("serving pipeline (1 worker), 64 requests over 8 distinct n=8 "
              "chains:\n");
  std::printf("  cold (no cache)      %10.0f q/s\n", cold_run.queries_per_sec);
  std::printf("  warm (shared cache)  %10.0f q/s   (%.1fx)\n",
              warm_run.queries_per_sec,
              warm_run.queries_per_sec /
                  (cold_run.queries_per_sec > 0 ? cold_run.queries_per_sec
                                                : 1.0));
  PlanCache::Stats bs = shared_cache.stats();
  std::printf("  cache: hits %zu misses %zu (hit rate %.1f%%)\n", bs.hits,
              bs.misses,
              100.0 * static_cast<double>(bs.hits) /
                  static_cast<double>(bs.lookups()));

  // ---- (c) snapshot restart: save, load into a fresh cache, serve -------
  WallTimer save_timer;
  std::string snapshot = shared_cache.SaveSnapshot(serde::Encoding::kBinary);
  double save_seconds = save_timer.Seconds();
  PlanCache warmed;
  WallTimer load_timer;
  warmed.LoadSnapshot(snapshot);
  double load_seconds = load_timer.Seconds();
  ServedRun restarted = Serve(corpus, &warmed, model);
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (Bits(cold_run.objectives[i]) != Bits(restarted.objectives[i])) {
      std::printf("!! restarted objective %zu differs from cold\n", i);
      ++g_failures;
    }
  }
  bench::Rule();
  std::printf("snapshot restart (binary, %zu entries, %zu bytes):\n",
              warmed.size(), snapshot.size());
  std::printf("  save %.2f ms, load %.2f ms, restarted run %.0f q/s "
              "(hits %zu / %zu)\n",
              save_seconds * 1e3, load_seconds * 1e3,
              restarted.queries_per_sec, warmed.stats().hits,
              warmed.stats().lookups());

  if (g_failures > 0) {
    std::printf("\n%d FAILURES — perf numbers above are not trustworthy\n",
                g_failures);
    return 1;
  }
  std::printf("\nall served results bit-identical to recompute\n");
  return 0;
}
