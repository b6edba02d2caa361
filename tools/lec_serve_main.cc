// lec_serve — the plan-cache serving front-end.
//
// Reads a mixed stream of commands and serialized requests from stdin (or
// a file), serves each request from the shared PlanCache when possible,
// optimizes on a miss, and reports per-request outcome plus cache stats.
// The request wire format is service/serde.h's ServeRequest (text or
// binary — the stream is sniffed per request), so anything another process
// serialized can be piped straight in.
//
//   build/lec_serve [--file=REQUESTS] [--snapshot=PATH]
//                   [--cache-entries=N] [--quiet]
//                   [--listen=PORT] [--workers=N] [--queue-capacity=N]
//
//   --file=PATH       read the stream from PATH instead of stdin
//   --snapshot=PATH   warm-load PATH at startup when it exists and save
//                     the cache back to it at clean exit; `save`/`load`
//                     (no argument) use it mid-stream too
//   --cache-entries=N PlanCache capacity (default 4096)
//   --quiet           suppress the per-request detail lines (stats remain)
//   --listen=PORT     also serve the socket wire protocol on
//                     127.0.0.1:PORT (0 picks an ephemeral port, printed
//                     at startup) through an async ServePipeline that
//                     SHARES this process's PlanCache — REPL serves warm
//                     the socket and vice versa. The REPL stays live for
//                     stats/save/load; quit/EOF drains the pipeline and
//                     shuts the socket down cleanly.
//   --workers=N       pipeline compute workers (default 2; --listen only)
//   --queue-capacity=N admission queue bound (default 256; --listen only)
//
// Stream grammar — first word of each element decides:
//
//   lecser ...             one serialized ServeRequest; served
//   gen STRAT SHAPE N SEED [SEL_SPREAD [SIZE_SPREAD]]
//                          generate a seeded workload and serve it, e.g.
//                          `gen lec_static chain 6 42 3`
//   emit STRAT SHAPE N SEED [SEL_SPREAD [SIZE_SPREAD]]
//                          like gen, but print the serialized request
//                          instead of serving (build request files this way)
//   stats                  print cache hit/miss/eviction/stale counters
//   execute STRAT N SEED M0[,M1,...]
//                          generate a seeded chain workload, downscale and
//                          materialize it (exec/plan_executor.h), optimize
//                          it with STRAT — any facade strategy, or
//                          `measured` for the calibrate-fitted backend —
//                          and run the chosen plan through the real storage
//                          operators twice: straight, and adaptively
//                          re-optimizing the tail on drift. Prints the
//                          per-phase traces and both executions' I/O.
//                          M0,M1,... is the per-phase buffer-pool capacity.
//   calibrate SEED [SAMPLES]
//                          replay the operator calibration grid through the
//                          storage engine, fit the measured cost model
//                          (least squares over realized page counts; cap
//                          the corpus at SAMPLES if given), print the
//                          per-operator coefficients and fit error, and
//                          install the model as the `execute measured`
//                          backend.
//   ingest NAME PAGES SEED [KEY_RANGE0 [KEY_RANGE1]]
//                          materialize PAGES pages of synthetic rows
//                          (storage/table_data.h; key range 0 = unique row
//                          ids) and stream them into the named relation's
//                          sketch (src/stats/). Repeating the command
//                          streams MORE rows into the same sketch — that
//                          is data drift.
//   stats-derive NAME      derive a measured size distribution from the
//                          named sketch and install it as an override:
//                          every subsequently served catalog containing a
//                          table of that name (gen names them T0, T1, ...)
//                          gets its pages/pages_dist replaced by the
//                          measurement. Prints the replaced distribution's
//                          ContentHash (feed it to invalidate-dist) and
//                          the new one.
//   invalidate-dist HASH   drop exactly the cached plans that consumed
//                          the distribution with this ContentHash (hex,
//                          as printed by stats-derive); prints the count
//   save [PATH]            snapshot the cache (default: --snapshot path)
//   load [PATH]            warm-load a snapshot (default: --snapshot path)
//   invalidate             epoch-invalidate every cached entry
//   trim                   release the DP scratch retained by this thread
//                          (after an outsized query; reports bytes freed)
//   quit                   exit (EOF also exits)
//   # ...                  comment line (text streams)
//
// Exit status: 0 on success, 1 on a malformed request/command (the stream
// position after a parse error inside a binary request is unrecoverable,
// so lec_serve stops rather than resync).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cost/measured_cost.h"
#include "exec/plan_executor.h"
#include "optimizer/dp_common.h"
#include "optimizer/reoptimize.h"
#include "query/generator.h"
#include "service/plan_cache.h"
#include "service/serde.h"
#include "service/serve_pipeline.h"
#include "service/wire_server.h"
#include "stats/table_stats.h"
#include "storage/buffer_pool.h"
#include "storage/table_data.h"
#include "util/rng.h"
#include "util/wall_timer.h"

namespace {

using lec::Distribution;
using lec::GenerateWorkload;
using lec::JoinGraphShape;
using lec::OptimizeRequest;
using lec::OptimizeResult;
using lec::Optimizer;
using lec::ParseStrategy;
using lec::PlanCache;
using lec::Rng;
using lec::StrategyId;
using lec::WorkloadOptions;

struct Flags {
  std::string file;
  std::string snapshot;
  size_t cache_entries = 4096;
  bool quiet = false;
  int listen_port = -1;  ///< -1 = no socket; 0 = ephemeral
  int workers = 2;
  size_t queue_capacity = 256;
};

std::optional<size_t> ParseNumber(const std::string& v, const char* flag) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "lec_serve: %s needs a number\n", flag);
    return std::nullopt;
  }
  try {
    return std::stoull(v);
  } catch (const std::exception&) {
    std::fprintf(stderr, "lec_serve: %s out of range\n", flag);
    return std::nullopt;
  }
}

std::optional<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const std::string& prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--file=")) {
      flags.file = *v;
    } else if (auto v = value("--snapshot=")) {
      flags.snapshot = *v;
    } else if (auto v = value("--cache-entries=")) {
      if (v->empty() ||
          v->find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "lec_serve: --cache-entries needs a number\n");
        return std::nullopt;
      }
      try {
        flags.cache_entries = std::stoull(*v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "lec_serve: --cache-entries out of range\n");
        return std::nullopt;
      }
    } else if (arg == "--quiet") {
      flags.quiet = true;
    } else if (auto v = value("--listen=")) {
      auto port = ParseNumber(*v, "--listen");
      if (!port || *port > 65535) {
        std::fprintf(stderr, "lec_serve: --listen needs a port (0-65535)\n");
        return std::nullopt;
      }
      flags.listen_port = static_cast<int>(*port);
    } else if (auto v = value("--workers=")) {
      auto n = ParseNumber(*v, "--workers");
      if (!n || *n < 1) return std::nullopt;
      flags.workers = static_cast<int>(*n);
    } else if (auto v = value("--queue-capacity=")) {
      auto n = ParseNumber(*v, "--queue-capacity");
      if (!n || *n < 1) return std::nullopt;
      flags.queue_capacity = *n;
    } else {
      std::fprintf(stderr,
                   "usage: lec_serve [--file=REQUESTS] [--snapshot=PATH] "
                   "[--cache-entries=N] [--quiet] [--listen=PORT] "
                   "[--workers=N] [--queue-capacity=N]\n");
      return std::nullopt;
    }
  }
  return flags;
}

std::optional<JoinGraphShape> ParseShape(const std::string& name) {
  if (name == "chain") return JoinGraphShape::kChain;
  if (name == "star") return JoinGraphShape::kStar;
  if (name == "cycle") return JoinGraphShape::kCycle;
  if (name == "clique") return JoinGraphShape::kClique;
  if (name == "random") return JoinGraphShape::kRandom;
  return std::nullopt;
}

/// The seeded demo environment `gen`/`emit` build: a workload plus the
/// Example-1.1-flavored three-point memory distribution. `args` is the
/// remainder of the command's own line, so optional trailing spreads can
/// never swallow the next command.
std::optional<lec::serde::ServeRequest> BuildGenRequest(
    const std::string& args) {
  std::istringstream in(args);
  std::string strategy, shape_name;
  int num_tables = 0;
  uint64_t seed = 0;
  if (!(in >> strategy >> shape_name >> num_tables >> seed)) return {};
  double sel_spread = 1.0, size_spread = 1.0;
  in >> sel_spread;
  in >> size_spread;
  if (!ParseStrategy(strategy) || !ParseShape(shape_name) || num_tables < 2) {
    return {};
  }
  WorkloadOptions wopts;
  wopts.num_tables = num_tables;
  wopts.shape = *ParseShape(shape_name);
  wopts.selectivity_spread = sel_spread;
  wopts.table_size_spread = size_spread;
  Rng rng(seed);
  lec::serde::ServeRequest request;
  request.strategy = strategy;
  request.workload = GenerateWorkload(wopts, &rng);
  request.memory = Distribution({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  request.seed = seed;
  return request;
}

class Server {
 public:
  explicit Server(const Flags& flags)
      : flags_(flags), cache_(MakeCacheOptions(flags)) {}

  PlanCache& cache() { return cache_; }
  const lec::CostModel& model() const { return model_; }

  /// Serves one deserialized request; prints outcome unless --quiet.
  bool Serve(const lec::serde::ServeRequest& request) {
    StrategyId id = *ParseStrategy(request.strategy);
    OptimizeRequest req;
    req.query = &request.workload.query;
    req.catalog = &request.workload.catalog;
    // Measured-statistics overrides (stats-derive): serve against a
    // patched catalog copy so the cached plan consumes — and is keyed by —
    // the measured distributions.
    std::optional<lec::Catalog> patched =
        ApplyMeasuredOverrides(request.workload.catalog);
    if (patched) req.catalog = &*patched;
    req.model = &model_;
    req.memory = &request.memory;
    req.options = request.options;
    req.options.plan_cache = &cache_;
    req.lsc_estimate = request.lsc_estimate;
    req.top_c = request.top_c;
    if (request.chain) req.chain = &*request.chain;
    req.seed = request.seed;
    req.randomized_restarts = request.randomized_restarts;
    req.randomized_patience = request.randomized_patience;
    req.sample_predicate = request.sample_predicate;

    size_t hits_before = cache_.stats().hits;
    lec::WallTimer timer;
    OptimizeResult result;
    try {
      result = optimizer_.Optimize(id, req);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lec_serve: optimize failed: %s\n", e.what());
      return false;
    }
    double seconds = timer.Seconds();
    ++served_;
    bool hit = cache_.stats().hits > hits_before;
    if (!flags_.quiet) {
      std::printf("#%zu %s n=%d %s objective=%.17g %.1f us\n", served_,
                  request.strategy.c_str(),
                  request.workload.query.num_tables(),
                  hit ? "HIT " : "MISS", result.objective, seconds * 1e6);
    }
    return true;
  }

  void PrintStats() const {
    PlanCache::Stats s = cache_.stats();
    std::printf(
        "cache: %zu entries (cap %zu) | hits %zu misses %zu hit-rate %.1f%% "
        "| insertions %zu evictions %zu stale %zu | rewrites skipped %zu\n",
        cache_.size(), cache_.max_entries(), s.hits, s.misses,
        s.lookups() > 0 ? 100.0 * static_cast<double>(s.hits) /
                              static_cast<double>(s.lookups())
                        : 0.0,
        s.insertions, s.evictions, s.stale, s.rewrites_skipped);
  }

  size_t served() const { return served_; }

  /// `ingest NAME PAGES SEED [KEY_RANGE0 [KEY_RANGE1]]`: materialize and
  /// stream synthetic rows into the named sketch, charging buffer-pool
  /// reads like any scan. Re-ingesting the same name accumulates (drift).
  bool Ingest(const std::string& args) {
    std::istringstream in(args);
    std::string name;
    size_t pages = 0;
    uint64_t seed = 0;
    if (!(in >> name >> pages >> seed) || pages == 0) {
      std::fprintf(stderr,
                   "lec_serve: usage: ingest NAME PAGES SEED "
                   "[KEY_RANGE0 [KEY_RANGE1]]\n");
      return false;
    }
    int64_t key_range0 = 0, key_range1 = 0;
    in >> key_range0;
    in >> key_range1;
    Rng rng(seed);
    lec::TableData data =
        lec::GenerateTable(pages, key_range0, key_range1, &rng);
    lec::BufferPool pool(1);
    lec::stats::TableSketch& sketch = sketches_[name];
    sketch.IngestTable(data, &pool);
    std::printf(
        "ingested %s: %zu pages, %" PRIu64 " rows (%" PRIu64
        " page reads charged); sketch now %" PRIu64 " rows, ~%.0f distinct\n",
        name.c_str(), data.num_pages(),
        static_cast<uint64_t>(data.num_tuples()), pool.reads(), sketch.rows(),
        sketch.row_distinct().Estimate());
    return true;
  }

  /// `stats-derive NAME`: turn the named sketch into a measured size
  /// distribution and install it as a serving override. Prints the
  /// replaced distribution's ContentHash — the input to invalidate-dist.
  bool DeriveStats(const std::string& args) {
    std::istringstream in(args);
    std::string name;
    if (!(in >> name)) {
      std::fprintf(stderr, "lec_serve: usage: stats-derive NAME\n");
      return false;
    }
    auto it = sketches_.find(name);
    if (it == sketches_.end()) {
      std::fprintf(stderr,
                   "lec_serve: no sketch for \"%s\" (run ingest first)\n",
                   name.c_str());
      return false;
    }
    Distribution dist = lec::stats::DeriveSizeDistribution(it->second);
    double pages = lec::stats::MeasuredPages(it->second);
    auto prev = measured_.find(name);
    if (prev == measured_.end()) {
      std::printf("%s: measured %.3f pages, dist %016" PRIx64 "\n",
                  name.c_str(), pages, dist.ContentHash());
    } else if (prev->second.dist.ContentHash() == dist.ContentHash()) {
      std::printf("%s: measured %.3f pages, dist %016" PRIx64 " (unchanged)\n",
                  name.c_str(), pages, dist.ContentHash());
    } else {
      // Drift: the old measurement is now stale — tell the operator which
      // hash to invalidate so only its consumers are dropped.
      std::printf("%s: measured %.3f pages, dist %016" PRIx64
                  " replaces stale %016" PRIx64 "\n",
                  name.c_str(), pages, dist.ContentHash(),
                  prev->second.dist.ContentHash());
    }
    measured_[name] = MeasuredSize{pages, std::move(dist)};
    return true;
  }

  /// `invalidate-dist HASH`: precise invalidation by distribution
  /// ContentHash (hex, with or without a 0x prefix — the format
  /// stats-derive prints).
  bool InvalidateDist(const std::string& args) {
    std::istringstream in(args);
    std::string token;
    if (!(in >> token)) {
      std::fprintf(stderr, "lec_serve: usage: invalidate-dist HASH\n");
      return false;
    }
    uint64_t hash = 0;
    try {
      size_t used = 0;
      hash = std::stoull(token, &used, 16);
      if (used != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      std::fprintf(stderr, "lec_serve: invalidate-dist: bad hash \"%s\"\n",
                   token.c_str());
      return false;
    }
    size_t dropped = cache_.InvalidateDistribution(hash);
    std::printf("invalidate-dist %016" PRIx64 ": dropped %zu entr%s\n", hash,
                dropped, dropped == 1 ? "y" : "ies");
    return true;
  }

  /// `calibrate SEED [SAMPLES]`: replay the calibration grid through the
  /// storage operators, fit the measured model, install it for
  /// `execute measured`.
  bool Calibrate(const std::string& args) {
    std::istringstream in(args);
    uint64_t seed = 0;
    if (!(in >> seed)) {
      std::fprintf(stderr, "lec_serve: usage: calibrate SEED [SAMPLES]\n");
      return false;
    }
    size_t samples = 0;
    in >> samples;
    Rng rng(seed);
    lec::CalibrationGrid grid;
    std::vector<lec::OperatorSample> corpus =
        lec::BuildCalibrationCorpus(grid, &rng);
    if (samples > 0 && samples < corpus.size()) corpus.resize(samples);
    lec::MeasuredCostModel fitted(model_);
    fitted.Fit(corpus);
    double before = lec::MeasuredCostModel(model_).MeanAbsRelativeError(corpus);
    double after = fitted.MeanAbsRelativeError(corpus);
    for (lec::JoinMethod m : lec::kAllJoinMethods) {
      const lec::MeasuredCoefficients& c = fitted.join_coefficients(m);
      std::printf("  %-11s alpha=%.4f beta=%.4f gamma=%+.2f (%zu samples)\n",
                  lec::ToString(m).c_str(), c.alpha, c.beta, c.gamma,
                  c.samples);
    }
    const lec::MeasuredCoefficients& s = fitted.sort_coefficients();
    std::printf("  %-11s alpha=%.4f beta=%.4f gamma=%+.2f (%zu samples)\n",
                "sort", s.alpha, s.beta, s.gamma, s.samples);
    std::printf(
        "calibrated on %zu operator runs: mean abs rel error %.4f -> %.4f\n",
        corpus.size(), before, after);
    measured_model_ = std::move(fitted);
    return true;
  }

  /// `execute STRAT N SEED M0[,M1,...]`: optimize a downscaled seeded chain
  /// and run the plan through the real operators, straight and adaptive.
  bool Execute(const std::string& args) {
    std::istringstream in(args);
    std::string strategy, mems_token;
    int n = 0;
    uint64_t seed = 0;
    if (!(in >> strategy >> n >> seed >> mems_token) || n < 2) {
      std::fprintf(stderr,
                   "lec_serve: usage: execute STRAT N SEED M0[,M1,...]\n");
      return false;
    }
    std::vector<double> mems;
    std::istringstream ms(mems_token);
    std::string piece;
    while (std::getline(ms, piece, ',')) {
      try {
        mems.push_back(std::stod(piece));
      } catch (const std::exception&) {
        mems.clear();
        break;
      }
      if (mems.back() < 1) {
        mems.clear();
        break;
      }
    }
    if (mems.empty()) {
      std::fprintf(stderr,
                   "lec_serve: execute: memories must be numbers >= 1\n");
      return false;
    }
    bool measured = strategy == "measured";
    if (measured && !measured_model_) {
      std::fprintf(stderr,
                   "lec_serve: execute measured needs `calibrate` first\n");
      return false;
    }
    if (!measured && !ParseStrategy(strategy)) {
      std::fprintf(stderr, "lec_serve: unknown strategy \"%s\"\n",
                   strategy.c_str());
      return false;
    }

    // Downscale the seeded chain to materializable size: catalog pages map
    // to ~log2(pages) and selectivities re-draw high enough to produce
    // matches at this scale (the fuzz I12 idiom).
    Rng rng(seed);
    WorkloadOptions wopts;
    wopts.num_tables = n;
    wopts.shape = JoinGraphShape::kChain;
    lec::Workload base = GenerateWorkload(wopts, &rng);
    lec::Catalog catalog;
    lec::Query query;
    for (lec::QueryPos p = 0; p < n; ++p) {
      double orig = base.catalog.table(base.query.table(p)).pages;
      double pages =
          std::clamp(std::round(std::log2(orig + 1.0)), 3.0, 12.0);
      // Two steps, not operator+: GCC 12's -Wrestrict false-fires on it.
      std::string name = "x";
      name += std::to_string(p);
      query.AddTable(catalog.AddTable(name, pages));
    }
    for (int i = 0; i + 1 < n; ++i) {
      query.AddPredicate(i, i + 1, rng.LogUniform(1e-2, 0.05));
    }
    lec::EngineWorkload data =
        lec::BuildChainEngineWorkload(query, catalog, &rng);

    OptimizeResult plan;
    if (measured) {
      plan = lec::OptimizeWithMeasuredModel(query, catalog, *measured_model_,
                                            mems[0]);
    } else {
      Distribution memory = Distribution::PointMass(mems[0]);
      OptimizeRequest req;
      req.query = &query;
      req.catalog = &catalog;
      req.model = &model_;
      req.memory = &memory;
      req.seed = seed;
      plan = optimizer_.Optimize(*ParseStrategy(strategy), req);
    }

    lec::ExecutePlanOptions straight;
    straight.memory_by_phase = mems;
    lec::ExecutionResult run = lec::ExecutePlan(plan.plan, query, data,
                                                straight);
    lec::ExecutePlanOptions adaptive = straight;
    adaptive.reoptimize_on_drift = true;
    adaptive.model = &model_;
    lec::ExecutionResult rerun = lec::ExecutePlan(plan.plan, query, data,
                                                  adaptive);

    std::printf("execute %s n=%d seed=%" PRIu64 ": objective=%.6g\n",
                strategy.c_str(), n, seed, plan.objective);
    for (const lec::PhaseTrace& t : run.phases) {
      std::printf("  phase %d: %-10s %gx%g -> planned %.3g realized %g "
                  "pages, io %" PRIu64 "+%" PRIu64 ", M=%g%s\n",
                  t.phase,
                  t.is_sort ? "sort" : lec::ToString(t.method).c_str(),
                  t.left_pages, t.right_pages, t.planned_output_pages,
                  t.realized_output_pages, t.page_reads, t.page_writes,
                  t.memory, t.drifted ? " [drift]" : "");
    }
    auto multiset = [](const lec::TableData& t) {
      std::vector<int64_t> out;
      out.reserve(t.num_tuples());
      t.ForEachTuple(
          [&](const lec::Tuple& tup) { out.push_back(tup.payload); });
      std::sort(out.begin(), out.end());
      return out;
    };
    bool same = multiset(run.result) == multiset(rerun.result);
    std::printf("  straight: io %" PRIu64 " (%" PRIu64 " reads, %" PRIu64
                " writes), %zu tuples\n",
                run.total_io(), run.page_reads, run.page_writes,
                run.result_tuples());
    std::printf("  adaptive: io %" PRIu64 ", %d reoptimization(s), %zu "
                "tuples, answers %s\n",
                rerun.total_io(), rerun.reoptimizations,
                rerun.result_tuples(), same ? "match" : "DIVERGE");
    return same;
  }

 private:
  struct MeasuredSize {
    double pages = 0;
    Distribution dist = Distribution::PointMass(1.0);
  };

  static PlanCache::Options MakeCacheOptions(const Flags& flags) {
    PlanCache::Options copts;
    copts.max_entries = flags.cache_entries;
    return copts;
  }

  /// Applies every stats-derive override whose name matches a table in
  /// `base`; returns the patched copy, or nullopt when nothing matched.
  std::optional<lec::Catalog> ApplyMeasuredOverrides(
      const lec::Catalog& base) const {
    std::optional<lec::Catalog> patched;
    for (const auto& [name, m] : measured_) {
      lec::TableId id;
      try {
        id = base.FindByName(name);
      } catch (const std::out_of_range&) {
        continue;
      }
      if (!patched) patched = base;
      patched->UpdateTableStats(id, m.pages, m.dist);
    }
    return patched;
  }

  Flags flags_;
  lec::CostModel model_;
  Optimizer optimizer_;
  PlanCache cache_;
  size_t served_ = 0;
  /// Measured-statistics state, keyed by relation name.
  std::map<std::string, lec::stats::TableSketch> sketches_;
  std::map<std::string, MeasuredSize> measured_;
  /// The `calibrate`-fitted second cost backend (`execute measured`).
  std::optional<lec::MeasuredCostModel> measured_model_;
};

int Run(std::istream& in, const Flags& flags) {
  Server server(flags);

  // --listen: an async pipeline + socket front end sharing the REPL's
  // PlanCache. Constructed before the snapshot warm-load so remote
  // requests arriving mid-load just miss and compute.
  std::optional<lec::ServePipeline> pipeline;
  std::optional<lec::WireServer> wire;
  if (flags.listen_port >= 0) {
    lec::ServePipeline::Options popts;
    popts.workers = flags.workers;
    popts.queue_capacity = flags.queue_capacity;
    popts.plan_cache = &server.cache();
    popts.model = &server.model();
    pipeline.emplace(std::move(popts));
    lec::WireServer::Options wopts;
    wopts.port = static_cast<uint16_t>(flags.listen_port);
    try {
      wire.emplace(&*pipeline, wopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lec_serve: %s\n", e.what());
      return 2;
    }
    std::printf("listening on 127.0.0.1:%u (workers=%d queue=%zu)\n",
                wire->port(), flags.workers, flags.queue_capacity);
    std::fflush(stdout);
  }

  if (!flags.snapshot.empty()) {
    std::ifstream probe(flags.snapshot);
    if (probe.good()) {
      probe.close();
      size_t loaded = server.cache().LoadSnapshotFile(flags.snapshot);
      std::printf("warm-loaded %zu entries from %s\n", loaded,
                  flags.snapshot.c_str());
    }
  }

  std::string word;
  while (in >> word) {
    try {
      if (word == "lecser") {
        // A serialized request: the magic word is consumed, the Reader
        // picks up at the encoding word.
        lec::serde::Reader reader(in, lec::serde::Reader::kHeaderConsumed);
        lec::serde::ServeRequest request = lec::serde::ReadServeRequest(reader);
        if (!server.Serve(request)) return 1;
      } else if (word == "gen" || word == "emit") {
        std::string rest;
        std::getline(in, rest);
        std::optional<lec::serde::ServeRequest> request = BuildGenRequest(rest);
        if (!request) {
          std::fprintf(stderr,
                       "lec_serve: usage: %s STRAT SHAPE N SEED "
                       "[SEL_SPREAD [SIZE_SPREAD]]\n",
                       word.c_str());
          return 1;
        }
        if (word == "emit") {
          std::printf("%s\n", lec::serde::ToString(*request).c_str());
        } else if (!server.Serve(*request)) {
          return 1;
        }
      } else if (word == "stats") {
        server.PrintStats();
        if (pipeline) {
          lec::ServePipeline::Stats p = pipeline->stats();
          lec::WireServer::Stats ws = wire->stats();
          std::printf(
              "pipeline: submitted %zu served %zu computed %zu coalesced %zu "
              "rejected %zu degraded %zu errors %zu queue-hwm %zu | wire: "
              "%zu conns %zu reqs %zu protocol-errors\n",
              p.submitted, p.served, p.computed, p.coalesced, p.rejected,
              p.degraded, p.errors, p.queue_depth_hwm, ws.connections,
              ws.requests, ws.protocol_errors);
        }
      } else if (word == "save" || word == "load") {
        // Line-delimited: an argument lives on the command's own line, so
        // a bare `save` can never swallow the next command as its path.
        std::string rest, path;
        std::getline(in, rest);
        std::istringstream(rest) >> path;
        if (path.empty()) path = flags.snapshot;
        if (path.empty()) {
          std::fprintf(stderr,
                       "lec_serve: %s needs a path (or --snapshot=)\n",
                       word.c_str());
          return 1;
        }
        if (word == "save") {
          size_t saved = server.cache().SaveSnapshotFile(path);
          std::printf("saved %zu entries to %s\n", saved, path.c_str());
        } else {
          size_t loaded = server.cache().LoadSnapshotFile(path);
          std::printf("loaded %zu entries from %s\n", loaded, path.c_str());
        }
      } else if (word == "ingest") {
        std::string rest;
        std::getline(in, rest);
        if (!server.Ingest(rest)) return 1;
      } else if (word == "execute") {
        std::string rest;
        std::getline(in, rest);
        if (!server.Execute(rest)) return 1;
      } else if (word == "calibrate") {
        std::string rest;
        std::getline(in, rest);
        if (!server.Calibrate(rest)) return 1;
      } else if (word == "stats-derive") {
        std::string rest;
        std::getline(in, rest);
        if (!server.DeriveStats(rest)) return 1;
      } else if (word == "invalidate-dist") {
        std::string rest;
        std::getline(in, rest);
        if (!server.InvalidateDist(rest)) return 1;
      } else if (word == "invalidate") {
        size_t before = server.cache().size();
        server.cache().InvalidateAll();
        std::printf("invalidated (%zu stale entries swept)\n",
                    before - server.cache().size());
      } else if (word == "trim") {
        // The DP scratch and Algorithm D's size records and arena are
        // sized by the largest query a thread has seen
        // (optimizer/dp_common.h); this releases the REPL thread's
        // (pipeline workers under --listen keep theirs until shutdown).
        // The next optimize re-warms.
        std::printf("trimmed %zu bytes of DP scratch\n",
                    lec::ReleaseThreadLocalDpScratch());
      } else if (word == "quit") {
        break;
      } else if (!word.empty() && word[0] == '#') {
        std::string rest;
        std::getline(in, rest);  // comment: swallow to end of line
      } else {
        std::fprintf(stderr, "lec_serve: unknown command \"%s\"\n",
                     word.c_str());
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lec_serve: %s\n", e.what());
      return 1;
    }
  }

  // Socket teardown before the snapshot save: stop accepting, drain every
  // admitted job, THEN snapshot — so the saved cache includes everything
  // the pipeline served.
  if (wire) {
    wire->Stop();
    pipeline->Shutdown();
    if (!flags.quiet) {
      lec::ServePipeline::Stats p = pipeline->stats();
      std::printf("pipeline drained: served %zu computed %zu coalesced %zu\n",
                  p.served, p.computed, p.coalesced);
    }
  }

  // --snapshot is symmetric: warm-loaded at startup, saved back at clean
  // exit — a restart cycle needs no explicit save/load commands.
  if (!flags.snapshot.empty()) {
    size_t saved = server.cache().SaveSnapshotFile(flags.snapshot);
    if (!flags.quiet) {
      std::printf("saved %zu entries to %s\n", saved, flags.snapshot.c_str());
    }
  }
  // The parting stats line is suppressed under --quiet so that
  // `lec_serve --quiet` output is exactly what the stream asked for —
  // the documented `emit ... > requests.lec` pipe depends on it. An
  // explicit `stats` command still prints.
  if (!flags.quiet) server.PrintStats();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Flags> flags = ParseFlags(argc, argv);
  if (!flags) return 2;
  if (!flags->file.empty()) {
    std::ifstream in(flags->file, std::ios::binary);
    if (!in.good()) {
      std::fprintf(stderr, "lec_serve: cannot open %s\n",
                   flags->file.c_str());
      return 2;
    }
    return Run(in, *flags);
  }
  return Run(std::cin, *flags);
}
