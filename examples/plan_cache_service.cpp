// Walkthrough: running the optimizer as a caching service.
//
// A serving process sees the same query shapes again and again. This
// example builds the full serving loop in miniature:
//
//   1. attach a PlanCache to the optimizer facade and serve a repeated
//      workload — the first occurrence of each shape optimizes, every
//      repeat is a cache hit, bit-identical to recomputing;
//   2. push the same corpus through the asynchronous serving pipeline
//      with the cache SHARED across its workers (the PlanCache is
//      internally synchronized);
//   3. snapshot the warm cache to disk (service/serde.h wire format,
//      bit-exact doubles) and warm-load it into a brand-new cache, as a
//      restarted service would — the "restart" then serves entirely from
//      cache.
//
// Build & run:  cmake --build build --target examples &&
//               build/example_plan_cache_service
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "query/generator.h"
#include "service/plan_cache.h"
#include "service/serve_pipeline.h"
#include "util/rng.h"
#include "util/wall_timer.h"

using namespace lec;

namespace {

/// A small "traffic day": 24 requests drawn from 4 recurring query shapes.
std::vector<serde::ServeRequest> MakeTraffic(const Distribution& memory) {
  std::vector<serde::ServeRequest> traffic;
  for (int i = 0; i < 24; ++i) {
    Rng rng(100 + static_cast<uint64_t>(i % 4));  // 4 distinct seeds, cycled
    WorkloadOptions wopts;
    wopts.num_tables = 7;
    wopts.shape = JoinGraphShape::kChain;
    wopts.selectivity_spread = 3.0;   // §3.6: uncertain selectivities
    wopts.table_size_spread = 2.0;    // ... and uncertain table sizes
    serde::ServeRequest request;
    request.strategy = "lec_static";
    request.workload = GenerateWorkload(wopts, &rng);
    request.memory = memory;
    traffic.push_back(std::move(request));
  }
  return traffic;
}

/// Serves `traffic` through a 4-worker pipeline sharing `cache`, prints the
/// rate, and returns the objectives summed in request order (a checksum
/// that does not depend on which worker served what).
double ServeAll(const std::vector<serde::ServeRequest>& traffic,
                PlanCache* cache, const CostModel& model, const char* label) {
  ServePipeline::Options popts;
  popts.workers = 4;
  popts.plan_cache = cache;  // shared across workers
  popts.model = &model;
  ServePipeline pipeline(popts);
  WallTimer timer;
  std::vector<ServeTicket> tickets;
  for (const serde::ServeRequest& r : traffic) {
    tickets.push_back(pipeline.Submit(r));
  }
  double checksum = 0;
  for (const ServeTicket& t : tickets) checksum += t.Wait().result.objective;
  std::printf("%s: %.0f queries/s (objective checksum %.1f)\n", label,
              static_cast<double>(traffic.size()) / timer.Seconds(),
              checksum);
  return checksum;
}

}  // namespace

int main() {
  CostModel model;
  // Example 1.1's flavor of memory uncertainty: mostly 512 pages, with
  // low- and high-memory states each a quarter likely.
  Distribution memory({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  Optimizer optimizer;
  std::vector<serde::ServeRequest> traffic = MakeTraffic(memory);

  // -- 1. The serving loop: attach a cache via OptimizerOptions ----------
  PlanCache cache;  // default: 4096 entries, 16 lock shards
  std::printf("serving %zu requests (4 distinct shapes):\n", traffic.size());
  for (size_t i = 0; i < traffic.size(); ++i) {
    OptimizeRequest req;
    req.query = &traffic[i].workload.query;
    req.catalog = &traffic[i].workload.catalog;
    req.model = &model;
    req.memory = &memory;
    req.options.plan_cache = &cache;  // <- the only serving-side change
    size_t hits_before = cache.stats().hits;
    OptimizeResult r = optimizer.Optimize(StrategyId::kLecStatic, req);
    if (i < 6) {  // print the first few to show the miss->hit flip
      std::printf("  request %2zu: objective %12.1f  %s  (%.1f us)\n", i,
                  r.objective,
                  cache.stats().hits > hits_before ? "HIT " : "MISS",
                  r.elapsed_seconds * 1e6);
    }
  }
  PlanCache::Stats s = cache.stats();
  std::printf("  ... cache after the day: %zu entries, %zu hits / %zu "
              "lookups (%.0f%% hit rate)\n\n",
              cache.size(), s.hits, s.lookups(),
              100.0 * static_cast<double>(s.hits) /
                  static_cast<double>(s.lookups()));

  // -- 2. Same corpus through the serving pipeline, cache shared --------
  double checksum = ServeAll(traffic, &cache, model,
                             "pipeline, 4 workers, warm shared cache");
  std::printf("\n");

  // -- 3. Snapshot, "restart", warm-load, serve --------------------------
  std::string path = "plan_cache_example.snapshot";
  cache.SaveSnapshotFile(path);
  std::printf("snapshot saved to %s\n", path.c_str());

  PlanCache restarted_cache;  // a fresh process's empty cache...
  size_t loaded = restarted_cache.LoadSnapshotFile(path);
  std::printf("restarted service warm-loaded %zu entries\n", loaded);

  double after_restart = ServeAll(traffic, &restarted_cache, model,
                                  "first run after restart");
  PlanCache::Stats rs = restarted_cache.stats();
  std::printf("  %zu/%zu served from cache, objective checksum %s\n", rs.hits,
              rs.lookups(),
              after_restart == checksum ? "IDENTICAL to pre-restart"
                                        : "DIFFERS (bug!)");
  std::remove(path.c_str());
  return after_restart == checksum ? 0 : 1;
}
