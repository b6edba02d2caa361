// lec_bench — the repository's end-to-end benchmark program.
//
// One process runs one named workload from one seed:
//
//   lec_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Every run is single-threaded: one client, a closed loop, a fixed
// operation count (a pure function of the workload and --seconds, never of
// elapsed time, so every count repeats exactly) and an untimed warm-up
// pass. The one thread moves across the CPUs it may use, between ops, so a
// run averages over them (CpuRotation). Planning requests follow the
// serving path driven from outside — DecodeWireRequest ->
// Optimizer::Optimize (rewrite on, one shared PlanCache) ->
// EncodeWireResponse — with the worker pool, sockets, deadlines and
// degrade decisions kept off the timed path (NOTES.md says why).
// execute_drift runs ExecutePlan instead.
//
// With --trace 1 the same workload runs twice from identical state: once
// untraced (for the overhead comparison and the bit-identity check), then
// with each request decomposed into the facade's public calls and every
// call recorded as a span. Grading (LSC plans, naive EC, reference
// executions) always runs after the timed phase.
//
// Output: free-form lines, then `METRIC <name> <value> <unit>` lines and a
// final `RESULT <correct> <attempted> <failed>` line, which run.py turns
// into the JSON result. Exit code 1 on any failed check.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "cost/expected_cost.h"
#include "dist/markov.h"
#include "exec/engine_simulator.h"
#include "exec/plan_executor.h"
#include "optimizer/optimizer.h"
#include "query/generator.h"
#include "rewrite/rewrite.h"
#include "service/plan_cache.h"
#include "service/serde.h"
#include "service/wire_server.h"
#include "util/rng.h"
#include "verify/tolerance.h"

using namespace lec;

namespace {

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Moves the benchmark's one thread from CPU to CPU, among those it may
/// run on, once it has spent kDwellNs on one. On a shared host each CPU is
/// slowed by its own co-tenants, in spells that can outlast a run, and the
/// scheduler leaves a lone busy thread where it is, so an unmoved run takes
/// one CPU's luck for its whole length. Visiting every CPU in turn averages
/// the spells (NOTES.md has the measurements). Moves happen between ops,
/// never inside a timed interval, and change nothing served.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next CPU now.
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    since_ns_ = NowNs();
  }
  /// Called between ops: moves on once the dwell time is used up.
  void Tick() {
    if (NowNs() - since_ns_ >= kDwellNs) Next();
  }

 private:
  static constexpr int64_t kDwellNs = 500'000'000;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t since_ns_ = 0;
};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Order-sensitive FNV-1a accumulator over 64-bit words.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void AddDouble(double v) { Add(Bits(v)); }
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest percentile with at least 10 samples beyond it (the largest
/// sample when there are fewer than 11).
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  size_t idx = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Workload parameters. Operation counts scale with --seconds by a fixed
// nominal rate, so a run's work is identical on every host and every run.
// ---------------------------------------------------------------------------

constexpr int kSetupRepeats = 5;

enum class Kind { kPlanCold, kServeHot, kPlanWide, kExecuteDrift };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  double ops_per_second;  ///< nominal rate on the reference host
  size_t min_ops;
  /// Timed ops are a whole number of periods of the workload's
  /// request-class cycle.
  size_t period;
};


// plan_cold and serve_hot: 4 shapes x 6 table counts x 2 strategies.
constexpr size_t kNarrowClasses = 48;
// plan_cold: the cache is filled to capacity by the warm-up pass, so every
// timed insert evicts.
constexpr size_t kColdCacheEntries = 256;
constexpr size_t kColdWarmupOps = 2 * kColdCacheEntries;
// serve_hot: fewer cache entries than distinct signatures, so lookups both
// hit and evict.
constexpr size_t kHotBaseQueries = 512;
constexpr int kHotRelabelings = 3;  // variants per base besides the original
constexpr size_t kHotCacheEntries = 256;
constexpr double kHotZipfS = 1.1;
constexpr size_t kHotWarmupOps = 2000;
constexpr size_t kHotRecheckEvery = 64;
// plan_wide: one op per (shape, n) in a fixed schedule, so every seed runs
// the same mix of sizes.
constexpr int kWideMinTables = 14;
constexpr int kWideMaxTables = 20;
constexpr size_t kWidePeriod = 2 * (kWideMaxTables - kWideMinTables + 1);
// execute_drift.
constexpr size_t kDriftQueries = 256;
const std::vector<double> kDriftMemoryStates = {4, 8, 16, 32, 64};
constexpr double kDriftStay = 0.5;

const WorkloadSpec kWorkloads[] = {
    {"plan_cold", Kind::kPlanCold, 1150, 480, kNarrowClasses},
    {"serve_hot", Kind::kServeHot, 9000, 1000, 1},
    {"plan_wide", Kind::kPlanWide, 5.5, 28, kWidePeriod},
    {"execute_drift", Kind::kExecuteDrift, 2600, 1000, 2},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Planning request generation
// ---------------------------------------------------------------------------

/// A three-point memory distribution around a log-uniform centre.
Distribution DrawMemory(Rng* rng) {
  double c = std::round(rng->LogUniform(64, 8192));
  return Distribution({{std::round(c / 4), 0.3}, {c, 0.4}, {c * 4, 0.3}});
}

/// Request `k` of a narrow workload. Shape, table count and strategy
/// cycle through every combination in a fixed order (kNarrowClasses), so
/// each seed draws the same mix of request classes and only the
/// statistics vary; that keeps the latency tail from hinging on how many
/// heavy classes one seed happens to draw.
StrategyId NarrowStrategy(size_t k) {
  return (k / 24) % 2 ? StrategyId::kAlgorithmD : StrategyId::kLecStatic;
}

Workload DrawNarrowQuery(size_t k, Rng* rng) {
  static const JoinGraphShape kShapes[] = {
      JoinGraphShape::kChain, JoinGraphShape::kStar, JoinGraphShape::kCycle,
      JoinGraphShape::kRandom};
  WorkloadOptions o;
  o.shape = kShapes[k % 4];
  o.num_tables = 5 + static_cast<int>((k / 4) % 6);
  o.selectivity_spread = 3.0;
  o.table_size_spread = 2.0;
  o.redundant_edge_probability = 0.3;
  o.filter_probability = 0.3;
  o.order_by_probability = 0.2;
  if (o.shape == JoinGraphShape::kRandom) o.extra_edges = 1;
  return GenerateWorkload(o, rng);
}

Workload DrawWideQuery(JoinGraphShape shape, int n, Rng* rng) {
  WorkloadOptions o;
  o.num_tables = n;
  o.shape = shape;
  return GenerateWorkload(o, rng);
}

serde::ServeRequest MakeRequest(Workload w, Distribution memory,
                                StrategyId strategy) {
  serde::ServeRequest r;
  r.strategy = std::string(StrategyName(strategy));
  r.workload = std::move(w);
  r.memory = std::move(memory);
  r.options.rewrite_mode = RewriteMode::kOn;
  r.lsc_estimate = PointEstimate::kMean;
  return r;
}

/// The same structure under new position labels (perm[p] = new position
/// of original p); predicate and filter list order is kept.
Workload Relabel(const Workload& w, const std::vector<int>& perm) {
  const Query& q = w.query;
  int n = q.num_tables();
  std::vector<int> from(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) from[static_cast<size_t>(perm[p])] = p;
  Workload out;
  out.catalog = w.catalog;
  for (int p = 0; p < n; ++p) {
    out.query.AddTable(q.table(from[static_cast<size_t>(p)]));
  }
  for (int i = 0; i < q.num_predicates(); ++i) {
    const JoinPredicate& e = q.predicate(i);
    out.query.AddPredicate(static_cast<QueryPos>(perm[e.left]),
                           static_cast<QueryPos>(perm[e.right]),
                           e.selectivity);
  }
  for (int i = 0; i < q.num_filters(); ++i) {
    const FilterPredicate& f = q.filter(i);
    out.query.AddFilter(static_cast<QueryPos>(perm[f.table]), f.selectivity);
  }
  if (q.required_order()) out.query.RequireOrder(*q.required_order());
  return out;
}

std::vector<int> NonIdentityPerm(int n, Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) perm[static_cast<size_t>(p)] = p;
  rng->Shuffle(&perm);
  if (std::is_sorted(perm.begin(), perm.end())) {
    std::rotate(perm.begin(), perm.begin() + 1, perm.end());
  }
  return perm;
}

/// Inputs and serving state of one planning workload. `inputs` holds each
/// distinct request once, wire-encoded; the timed and warm-up passes are
/// sequences of indices into it.
struct PlanningSetup {
  std::vector<std::string> inputs;
  std::vector<uint32_t> timed;
  std::vector<uint32_t> warmup;
  std::unique_ptr<PlanCache> cache;
  double generate_s = 0;
  double warmup_s = 0;
  double total_s = 0;
};

void GeneratePlanning(Kind kind, size_t ops, uint64_t seed,
                      PlanningSetup* s) {
  Rng rng(seed);
  auto add = [&](const serde::ServeRequest& r) {
    s->inputs.push_back(EncodeWireRequest(r));
    return static_cast<uint32_t>(s->inputs.size() - 1);
  };
  if (kind == Kind::kPlanCold) {
    // Every request distinct.
    for (size_t i = 0; i < ops + kColdWarmupOps; ++i) {
      Workload w = DrawNarrowQuery(i, &rng);
      uint32_t idx = add(
          MakeRequest(std::move(w), DrawMemory(&rng), NarrowStrategy(i)));
      (i < kColdWarmupOps ? s->warmup : s->timed).push_back(idx);
    }
    return;
  }
  if (kind == Kind::kServeHot) {
    // Base queries plus relabelings; Zipf over bases, uniform over variants.
    std::vector<std::vector<uint32_t>> variants(kHotBaseQueries);
    for (size_t b = 0; b < kHotBaseQueries; ++b) {
      StrategyId id = NarrowStrategy(b);
      Workload w = DrawNarrowQuery(b, &rng);
      Distribution memory = DrawMemory(&rng);
      for (int v = 0; v < kHotRelabelings; ++v) {
        std::vector<int> perm = NonIdentityPerm(w.query.num_tables(), &rng);
        variants[b].push_back(add(MakeRequest(Relabel(w, perm), memory, id)));
      }
      variants[b].push_back(add(MakeRequest(std::move(w), memory, id)));
    }
    std::vector<double> cdf(kHotBaseQueries);
    double total = 0;
    for (size_t k = 0; k < kHotBaseQueries; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kHotZipfS);
      cdf[k] = total;
    }
    auto draw = [&]() {
      double u = rng.Uniform01() * total;
      size_t b = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      b = std::min(b, kHotBaseQueries - 1);
      const std::vector<uint32_t>& vs = variants[b];
      return vs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vs.size()) - 1))];
    };
    for (size_t i = 0; i < kHotWarmupOps; ++i) s->warmup.push_back(draw());
    for (size_t i = 0; i < ops; ++i) s->timed.push_back(draw());
    return;
  }
  // plan_wide: a fixed (shape, n) schedule; one extra n=18 chain and n=20
  // chain warm the DP scratch and the large-n path before timing.
  auto wide = [&](JoinGraphShape shape, int n) {
    Workload w = DrawWideQuery(shape, n, &rng);
    return add(
        MakeRequest(std::move(w), DrawMemory(&rng), StrategyId::kLecStatic));
  };
  s->warmup.push_back(wide(JoinGraphShape::kChain, 18));
  s->warmup.push_back(wide(JoinGraphShape::kChain, kWideMaxTables));
  int sizes = kWideMaxTables - kWideMinTables + 1;
  for (size_t i = 0; i < ops; ++i) {
    JoinGraphShape shape =
        i % 2 ? JoinGraphShape::kCycle : JoinGraphShape::kChain;
    int n = kWideMinTables + static_cast<int>((i / 2) % sizes);
    s->timed.push_back(wide(shape, n));
  }
}

size_t CacheEntriesFor(Kind kind) {
  if (kind == Kind::kServeHot) return kHotCacheEntries;
  if (kind == Kind::kPlanCold) return kColdCacheEntries;
  return 4096;
}

// ---------------------------------------------------------------------------
// The serving path
// ---------------------------------------------------------------------------

/// What the serving process injects into a decoded request (the same
/// mapping ServePipeline applies): the shared plan cache, no EC cache.
OptimizeRequest ToOptimizeRequest(const serde::ServeRequest& s,
                                  const CostModel* model, PlanCache* cache) {
  OptimizeRequest r;
  r.query = &s.workload.query;
  r.catalog = &s.workload.catalog;
  r.model = model;
  r.memory = &s.memory;
  r.options = s.options;
  r.options.plan_cache = cache;
  r.options.ec_cache = nullptr;
  r.options.dist_arena = nullptr;
  r.lsc_estimate = s.lsc_estimate;
  r.top_c = s.top_c;
  if (s.chain) r.chain = &*s.chain;
  r.seed = s.seed;
  r.randomized_restarts = s.randomized_restarts;
  r.randomized_patience = s.randomized_patience;
  r.sample_predicate = s.sample_predicate;
  return r;
}

StrategyId StrategyOf(const serde::ServeRequest& s) {
  std::optional<StrategyId> id = ParseStrategy(s.strategy);
  if (!id) throw std::invalid_argument("unknown strategy " + s.strategy);
  return *id;
}

std::string ErrorResponse(const std::exception& e) {
  WireResponse resp;
  resp.status = ServeStatus::kError;
  resp.error = e.what();
  return EncodeWireResponse(resp);
}

/// One request through the untraced serving path.
std::string ServeOne(const Optimizer& optimizer, const CostModel& model,
                     PlanCache* cache, const std::string& frame,
                     OptimizeResult* served) {
  try {
    WireRequest wr = DecodeWireRequest(frame);
    OptimizeRequest req = ToOptimizeRequest(wr.request, &model, cache);
    WireResponse resp;
    resp.status = ServeStatus::kOk;
    resp.result = optimizer.Optimize(StrategyOf(wr.request), req);
    std::string out = EncodeWireResponse(resp, wr.encoding);
    *served = *std::move(resp.result);
    return out;
  } catch (const std::exception& e) {
    *served = OptimizeResult{};
    return ErrorResponse(e);
  }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

enum SpanName : uint32_t {
  kSpanRequest,
  kSpanDecode,
  kSpanRewrite,
  kSpanSignature,
  kSpanLookup,
  kSpanOptimize,
  kSpanInsert,
  kSpanEncode,
  kSpanExec,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "request", "wire.decode", "rewrite",   "signature", "plan_cache.lookup",
    "optimizer", "plan_cache.insert", "wire.encode", "exec"};

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t name;
  uint32_t parent;  ///< index into the span log, or kNoParent
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span log, written out once at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }

  uint32_t Open(uint32_t name, uint32_t parent, uint64_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t span) { spans_[span].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "id\tname\tparent\trequest\tstart_ns\tend_ns\n");
    int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%llu\t%lld\t%lld\n", i,
                   kSpanNames[s.name],
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

/// One request decomposed into the facade's public calls, each a span:
/// decode, rewrite, signature, lookup, (on a miss) optimize with rewrite
/// off and no cache plus insert, encode. Mirrors Optimizer::Optimize's
/// cache path step for step, so the served bits are the untraced ones.
std::string ServeOneTraced(const Optimizer& optimizer, const CostModel& model,
                           PlanCache* cache, const std::string& frame,
                           uint64_t request_id, SpanLog* log,
                           OptimizeResult* served, bool* hit,
                           size_t* signature_bytes) {
  uint32_t root = log->Open(kSpanRequest, kNoParent, request_id);
  std::string out;
  try {
    uint32_t sp = log->Open(kSpanDecode, root, request_id);
    WireRequest wr = DecodeWireRequest(frame);
    log->Close(sp);
    StrategyId id = StrategyOf(wr.request);
    OptimizeRequest req = ToOptimizeRequest(wr.request, &model, cache);

    OptimizeRequest effective = req;
    std::shared_ptr<const rewrite::RewriteOutcome> outcome;
    if (req.options.rewrite_mode == RewriteMode::kOn) {
      sp = log->Open(kSpanRewrite, root, request_id);
      outcome = std::make_shared<rewrite::RewriteOutcome>(
          rewrite::StandardPassManager().Run(*req.query, *req.catalog,
                                             req.options.size_buckets));
      log->Close(sp);
      effective.query = &outcome->query;
      effective.catalog = &outcome->catalog;
    }
    sp = log->Open(kSpanSignature, root, request_id);
    QuerySignature sig = QuerySignature::Compute(id, effective);
    log->Close(sp);
    *signature_bytes = sig.canonical.size();

    sp = log->Open(kSpanLookup, root, request_id);
    std::optional<OptimizeResult> cached = cache->Lookup(sig);
    log->Close(sp);
    WireResponse resp;
    resp.status = ServeStatus::kOk;
    *hit = cached.has_value();
    if (cached) {
      resp.result = std::move(cached);
    } else {
      OptimizeRequest inner = effective;
      inner.options.rewrite_mode = RewriteMode::kOff;
      inner.options.plan_cache = nullptr;
      sp = log->Open(kSpanOptimize, root, request_id);
      OptimizeResult result = optimizer.Optimize(id, inner);
      log->Close(sp);
      sp = log->Open(kSpanInsert, root, request_id);
      cache->Insert(sig, result);
      log->Close(sp);
      resp.result = std::move(result);
    }
    resp.result->rewrite = outcome;
    sp = log->Open(kSpanEncode, root, request_id);
    out = EncodeWireResponse(resp, wr.encoding);
    log->Close(sp);
    *served = *std::move(resp.result);
  } catch (const std::exception& e) {
    *served = OptimizeResult{};
    out = ErrorResponse(e);
  }
  log->Close(root);
  return out;
}

/// Per-layer self times (µs) gathered from the span log.
struct LayerTimes {
  std::vector<double> by_layer[kNumSpanNames];
  double request_total_us = 0;
  double child_total_us = 0;
  double layer_total_us[kNumSpanNames] = {};
};

LayerTimes SelfTimes(const SpanLog& log) {
  LayerTimes t;
  for (const Span& s : log.spans()) {
    double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    if (s.name == kSpanRequest) {
      t.request_total_us += us;
      t.by_layer[kSpanRequest].push_back(us);
      continue;
    }
    // Every layer span is a leaf under its request span, so its self time
    // is its whole duration.
    t.by_layer[s.name].push_back(us);
    t.layer_total_us[s.name] += us;
    t.child_total_us += us;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Planning workloads: run, grade, report
// ---------------------------------------------------------------------------

struct OpRecord {
  double latency_ms = 0;
  double objective = 0;
  bool hit = false;
};

struct PlanningPass {
  std::vector<OpRecord> ops;
  std::vector<std::string> responses;
  PlanCache::Stats before, after;
  size_t passes_applied = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  size_t cost_evaluations = 0;
  size_t candidates = 0;
  size_t pruned_candidates = 0;
  size_t signature_bytes = 0;
  std::optional<SpanLog> log;
};

double PlanningSetupOnce(const WorkloadSpec& w, size_t ops, uint64_t seed,
                         const Optimizer& optimizer, const CostModel& model,
                         PlanningSetup* s) {
  int64_t t0 = NowNs();
  GeneratePlanning(w.kind, ops, seed, s);
  s->generate_s = SecondsSince(t0);
  PlanCache::Options copts;
  copts.max_entries = CacheEntriesFor(w.kind);
  s->cache = std::make_unique<PlanCache>(copts);
  int64_t t1 = NowNs();
  OptimizeResult served;
  for (uint32_t idx : s->warmup) {
    ServeOne(optimizer, model, s->cache.get(), s->inputs[idx], &served);
  }
  s->warmup_s = SecondsSince(t1);
  s->total_s = SecondsSince(t0);
  return s->total_s;
}

PlanningPass RunPlanningPass(const PlanningSetup& s, const Optimizer& optimizer,
                             const CostModel& model, bool traced,
                             CpuRotation* cpus) {
  PlanningPass p;
  size_t n = s.timed.size();
  p.ops.resize(n);
  p.responses.resize(n);
  if (traced) p.log.emplace(n * 8);
  PlanCache* cache = s.cache.get();
  p.before = cache->stats();
  size_t hits = p.before.hits;
  for (size_t i = 0; i < n; ++i) {
    cpus->Tick();
    const std::string& frame = s.inputs[s.timed[i]];
    OptimizeResult served;
    OpRecord& rec = p.ops[i];
    if (traced) {
      size_t sig_bytes = 0;
      size_t root_idx = p.log->spans().size();
      p.responses[i] = ServeOneTraced(optimizer, model, cache, frame, i,
                                      &*p.log, &served, &rec.hit, &sig_bytes);
      const Span& root = p.log->spans()[root_idx];
      rec.latency_ms = static_cast<double>(root.end_ns - root.start_ns) * 1e-6;
      p.signature_bytes += sig_bytes;
    } else {
      int64_t t0 = NowNs();
      p.responses[i] = ServeOne(optimizer, model, cache, frame, &served);
      rec.latency_ms = static_cast<double>(NowNs() - t0) * 1e-6;
      // Client bookkeeping, outside the op's interval.
      size_t h = cache->stats().hits;
      rec.hit = h != hits;
      hits = h;
    }
    rec.objective = served.objective;
    p.request_bytes += frame.size();
    p.response_bytes += p.responses[i].size();
    if (served.rewrite) p.passes_applied += served.rewrite->total_applied();
    if (!rec.hit) {
      p.cost_evaluations += served.cost_evaluations;
      p.candidates += served.candidates_considered;
      p.pruned_candidates += served.pruned_candidates;
    }
  }
  p.after = cache->stats();
  return p;
}

struct Grade {
  size_t failed = 0;
  /// Mean over distinct inputs of LEC cost / LSC-at-mean cost.
  double plan_cost_ratio = 0;
  /// Sum of LEC costs / sum of LSC costs over all ops.
  double sum_cost_ratio = 0;
  std::vector<std::string> notes;

  void Fail(size_t op, const std::string& what) {
    ++failed;
    if (notes.size() >= 10) return;
    std::string note = "op ";
    note += std::to_string(op);
    note += ": ";
    note += what;
    notes.push_back(std::move(note));
  }
};

/// Per-distinct-input grading facts: the EC of the served plan and of the
/// LSC-at-mean plan under the request's distributions.
struct InputGrade {
  bool graded = false;
  bool ok = true;
  double lec_ec = 0;
  double lsc_ec = 0;
};

Grade GradePlanning(const WorkloadSpec& w, const PlanningSetup& s,
                    const PlanningPass& p, const Optimizer& optimizer,
                    const CostModel& model) {
  Grade g;
  std::vector<InputGrade> memo(s.inputs.size());
  double lec_sum = 0, lsc_sum = 0, ratio_sum = 0;
  size_t distinct = 0;
  size_t hit_count = 0;
  for (size_t i = 0; i < s.timed.size(); ++i) {
    uint32_t idx = s.timed[i];
    WireResponse resp;
    try {
      resp = DecodeWireResponse(p.responses[i]);
    } catch (const std::exception& e) {
      g.Fail(i, std::string("response does not decode: ") + e.what());
      continue;
    }
    if (resp.status != ServeStatus::kOk || !resp.result ||
        !resp.result->plan) {
      g.Fail(i, "not served: " + resp.error);
      continue;
    }
    const OptimizeResult& served = *resp.result;
    if (Bits(served.objective) != Bits(p.ops[i].objective) ||
        !std::isfinite(served.objective) || served.objective <= 0) {
      g.Fail(i, "bad objective");
      continue;
    }
    WireRequest wr = DecodeWireRequest(s.inputs[idx]);
    StrategyId id = StrategyOf(wr.request);
    OptimizeRequest req = ToOptimizeRequest(wr.request, &model, nullptr);

    // Every 64th hit on serve_hot must equal an uncached recompute.
    if (p.ops[i].hit && w.kind == Kind::kServeHot &&
        hit_count++ % kHotRecheckEvery == 0) {
      OptimizeResult fresh = optimizer.Optimize(id, req);
      if (Bits(fresh.objective) != Bits(served.objective) ||
          !PlanEquals(fresh.plan, served.plan)) {
        g.Fail(i, "hit differs from recompute");
      }
    }

    InputGrade& m = memo[idx];
    if (!m.graded) {
      m.graded = true;
      rewrite::RewriteOutcome rw = rewrite::StandardPassManager().Run(
          *req.query, *req.catalog, req.options.size_buckets);
      OptimizeRequest lsc = req;
      lsc.query = &rw.query;
      lsc.catalog = &rw.catalog;
      lsc.options.rewrite_mode = RewriteMode::kOff;
      OptimizeResult lsc_plan = optimizer.Optimize(StrategyId::kLsc, lsc);
      if (id == StrategyId::kLecStatic) {
        m.lec_ec = PlanExpectedCostStatic(served.plan, rw.query, rw.catalog,
                                          model, wr.request.memory);
        m.lsc_ec = PlanExpectedCostStatic(lsc_plan.plan, rw.query, rw.catalog,
                                          model, wr.request.memory);
        double err = verify::RelativeError(served.objective, m.lec_ec);
        if (err > verify::kOracleRelTol) {
          m.ok = false;
          g.notes.push_back("objective vs naive EC rel err");
          g.notes.back() += std::to_string(err);
        }
        if (m.lec_ec > m.lsc_ec * (1 + verify::kOracleRelTol)) {
          m.ok = false;
          g.notes.push_back("LEC plan costs more than the LSC plan");
        }
      } else {
        size_t buckets = req.options.size_buckets;
        m.lec_ec = PlanExpectedCostMultiParam(served.plan, rw.query,
                                              rw.catalog, model,
                                              wr.request.memory, buckets);
        m.lsc_ec = PlanExpectedCostMultiParam(lsc_plan.plan, rw.query,
                                              rw.catalog, model,
                                              wr.request.memory, buckets);
      }
      if (m.ok) {
        ratio_sum += m.lec_ec / m.lsc_ec;
        ++distinct;
      }
    }
    if (!m.ok) {
      g.Fail(i, "grading check failed");
      continue;
    }
    lec_sum += m.lec_ec;
    lsc_sum += m.lsc_ec;
  }
  g.plan_cost_ratio = distinct ? ratio_sum / static_cast<double>(distinct) : 0;
  g.sum_cost_ratio = lsc_sum > 0 ? lec_sum / lsc_sum : 0;
  return g;
}

// ---------------------------------------------------------------------------
// execute_drift
// ---------------------------------------------------------------------------

std::string TableName(int position) {
  // Appended rather than concatenated: GCC 12 misreports -Wrestrict on
  // `"t" + std::to_string(...)`.
  std::string name = "t";
  name += std::to_string(position);
  return name;
}

struct DriftQuery {
  Catalog catalog;
  Query stale;  ///< what the planner believes
  EngineWorkload data;  ///< materialized from the true selectivities
  PlanPtr lec;
  PlanPtr lsc;
};

struct DriftOp {
  uint32_t query;
  bool lec;
  std::vector<double> trajectory;  ///< memory per join phase
};

struct DriftSetup {
  std::vector<DriftQuery> queries;
  std::vector<DriftOp> ops;
  std::vector<DriftOp> warmup;
  double generate_s = 0;
  double materialize_s = 0;
  double warmup_s = 0;
  double total_s = 0;
};

struct DriftEnv {
  MarkovChain chain = MarkovChain::Drift(kDriftMemoryStates, kDriftStay);
  Distribution initial = UniformOverStates();
  Distribution lsc_memory = Distribution::PointMass(UniformOverStates().Mean());

  static Distribution UniformOverStates() {
    std::vector<Bucket> b;
    for (double v : kDriftMemoryStates) {
      b.push_back({v, 1.0 / static_cast<double>(kDriftMemoryStates.size())});
    }
    return Distribution(b);
  }
};

/// Per-op execution options: LEC ops re-plan suffixes under the Markov
/// chain conditioned on the observed memory, LSC ops at the mean memory.
ExecutePlanOptions DriftOptions(const DriftEnv& env, const CostModel& model,
                                bool lec) {
  ExecutePlanOptions o;
  o.reoptimize_on_drift = true;
  o.drift_threshold = 0.5;
  o.model = &model;
  if (lec) {
    o.chain = &env.chain;
  } else {
    o.memory_dist = &env.lsc_memory;
  }
  return o;
}

double DriftSetupOnce(size_t ops, uint64_t seed, const DriftEnv& env,
                      const Optimizer& optimizer, const CostModel& model,
                      DriftSetup* s) {
  int64_t t0 = NowNs();
  Rng rng(seed);
  std::vector<Query> truths;
  // Table sizes and true selectivities come from a fixed grid, so every
  // seed runs the same mix of query sizes. The seed draws which
  // selectivities the planner sees stale, the data and every trajectory.
  for (size_t q = 0; q < kDriftQueries; ++q) {
    DriftQuery dq;
    Query truth;
    int n = 4 + static_cast<int>(q % 3);
    for (int p = 0; p < n; ++p) {
      double pages = static_cast<double>(
          6 + (q * 7 + static_cast<size_t>(p) * 11) % 19);
      TableId t = dq.catalog.AddTable(TableName(p), pages);
      dq.stale.AddTable(t);
      truth.AddTable(t);
    }
    for (int i = 0; i + 1 < n; ++i) {
      // 0.01 to 0.05 in eight log-spaced steps.
      size_t step = (q * 5 + static_cast<size_t>(i) * 3) % 8;
      double sel = 1e-2 * std::pow(5.0, static_cast<double>(step) / 7.0);
      // Half the planner's selectivities are stale by 10x.
      double seen = rng.Uniform01() < 0.5 ? sel / 10 : sel;
      dq.stale.AddPredicate(i, i + 1, seen);
      truth.AddPredicate(i, i + 1, sel);
    }
    s->queries.push_back(std::move(dq));
    truths.push_back(std::move(truth));
  }
  auto draw_ops = [&](size_t count, std::vector<DriftOp>* out) {
    for (size_t k = 0; k < count; ++k) {
      uint32_t q = static_cast<uint32_t>(k % kDriftQueries);
      size_t phases =
          static_cast<size_t>(s->queries[q].stale.num_tables() - 1);
      std::vector<double> traj =
          env.chain.SampleTrajectory(env.initial, phases, &rng);
      out->push_back({q, true, traj});
      out->push_back({q, false, std::move(traj)});
    }
  };
  draw_ops(kDriftQueries, &s->warmup);
  draw_ops(ops / 2, &s->ops);
  s->generate_s = SecondsSince(t0);

  int64_t t1 = NowNs();
  for (size_t q = 0; q < kDriftQueries; ++q) {
    s->queries[q].data =
        BuildChainEngineWorkload(truths[q], s->queries[q].catalog, &rng);
  }
  s->materialize_s = SecondsSince(t1);

  // Up-front planning: both plans per query, compiled before timing.
  for (DriftQuery& dq : s->queries) {
    OptimizeRequest r;
    r.query = &dq.stale;
    r.catalog = &dq.catalog;
    r.model = &model;
    r.memory = &env.initial;
    r.chain = &env.chain;
    dq.lec = optimizer.Optimize(StrategyId::kLecDynamic, r).plan;
    r.lsc_estimate = PointEstimate::kMean;
    dq.lsc = optimizer.Optimize(StrategyId::kLsc, r).plan;
  }

  int64_t t2 = NowNs();
  ExecutePlanOptions lec_opts = DriftOptions(env, model, true);
  ExecutePlanOptions lsc_opts = DriftOptions(env, model, false);
  for (const DriftOp& op : s->warmup) {
    const DriftQuery& dq = s->queries[op.query];
    ExecutePlanOptions& o = op.lec ? lec_opts : lsc_opts;
    o.memory_by_phase = op.trajectory;
    ExecutePlan(op.lec ? dq.lec : dq.lsc, dq.stale, dq.data, o);
  }
  s->warmup_s = SecondsSince(t2);
  s->total_s = SecondsSince(t0);
  return s->total_s;
}

uint64_t PayloadHash(const TableData& t) {
  std::vector<int64_t> payloads;
  payloads.reserve(t.num_tuples());
  t.ForEachTuple([&](const Tuple& tup) { payloads.push_back(tup.payload); });
  std::sort(payloads.begin(), payloads.end());
  Digest d;
  for (int64_t v : payloads) d.Add(static_cast<uint64_t>(v));
  d.Add(payloads.size());
  return d.h;
}

struct DriftRecord {
  double latency_ms = 0;
  uint64_t io = 0;
  int reoptimizations = 0;
  int drifted = 0;
  uint64_t payload_hash = 0;
  bool ok = true;
};

std::vector<DriftRecord> RunDriftPass(const DriftSetup& s, const DriftEnv& env,
                                      const CostModel& model, SpanLog* log,
                                      CpuRotation* cpus) {
  std::vector<DriftRecord> recs(s.ops.size());
  ExecutePlanOptions lec_opts = DriftOptions(env, model, true);
  ExecutePlanOptions lsc_opts = DriftOptions(env, model, false);
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const DriftOp& op = s.ops[i];
    const DriftQuery& dq = s.queries[op.query];
    ExecutePlanOptions& o = op.lec ? lec_opts : lsc_opts;
    DriftRecord& rec = recs[i];
    uint32_t root = 0, sp = 0;
    cpus->Tick();
    int64_t t0 = NowNs();
    if (log) {
      root = log->Open(kSpanRequest, kNoParent, i);
      sp = log->Open(kSpanExec, root, i);
    }
    std::optional<ExecutionResult> r;
    try {
      o.memory_by_phase.assign(op.trajectory.begin(), op.trajectory.end());
      r = ExecutePlan(op.lec ? dq.lec : dq.lsc, dq.stale, dq.data, o);
    } catch (const std::exception&) {
      rec.ok = false;
    }
    if (log) {
      log->Close(sp);
      log->Close(root);
      const Span& rs = log->spans()[root];
      rec.latency_ms = static_cast<double>(rs.end_ns - rs.start_ns) * 1e-6;
    } else {
      rec.latency_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    }
    // Client bookkeeping, outside the op's interval.
    if (r) {
      rec.io = r->total_io();
      rec.reoptimizations = r->reoptimizations;
      for (const PhaseTrace& t : r->phases) rec.drifted += t.drifted ? 1 : 0;
      rec.payload_hash = PayloadHash(r->result);
    }
  }
  return recs;
}

/// Every op's answer must equal the straight (never re-planned) run of the
/// same query's LSC plan.
Grade GradeDrift(const DriftSetup& s, const std::vector<DriftRecord>& recs,
                 const DriftEnv& env) {
  Grade g;
  std::vector<uint64_t> want(s.queries.size());
  for (size_t q = 0; q < s.queries.size(); ++q) {
    const DriftQuery& dq = s.queries[q];
    ExecutePlanOptions straight;
    straight.memory_by_phase = {env.lsc_memory.Mean()};
    want[q] = PayloadHash(ExecutePlan(dq.lsc, dq.stale, dq.data, straight)
                              .result);
  }
  // Ops come in pairs: the LEC plan, then the LSC plan, under one
  // trajectory. A query's cost ratio is its LEC plans' total I/O over its
  // LSC plans' total I/O, across all of its trajectories.
  std::vector<uint64_t> lec_io(s.queries.size()), lsc_io(s.queries.size());
  for (size_t i = 0; i + 1 < recs.size(); i += 2) {
    bool ok = true;
    for (size_t j : {i, i + 1}) {
      const DriftRecord& r = recs[j];
      if (!r.ok || r.payload_hash != want[s.ops[j].query] || r.io == 0) {
        g.Fail(j, "execution failed or changed the answer");
        ok = false;
      }
    }
    if (!ok) continue;
    lec_io[s.ops[i].query] += recs[i].io;
    lsc_io[s.ops[i].query] += recs[i + 1].io;
  }
  double ratio_sum = 0;
  size_t graded = 0;
  uint64_t lec_total = 0, lsc_total = 0;
  for (size_t q = 0; q < s.queries.size(); ++q) {
    if (lsc_io[q] == 0) continue;
    ratio_sum += static_cast<double>(lec_io[q]) /
                 static_cast<double>(lsc_io[q]);
    ++graded;
    lec_total += lec_io[q];
    lsc_total += lsc_io[q];
  }
  g.plan_cost_ratio = graded ? ratio_sum / static_cast<double>(graded) : 0;
  g.sum_cost_ratio = lsc_total > 0 ? static_cast<double>(lec_total) /
                                         static_cast<double>(lsc_total)
                                   : 0;
  return g;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Mixes the workload name into the seed so workloads never share inputs.
uint64_t WorkloadSeed(const WorkloadSpec& w, uint64_t seed) {
  return Fnv1a64(w.name) ^ (seed * 0x9e3779b97f4a7c15ULL);
}

/// End-to-end latency metrics, each over every timed op of the run:
/// throughput is ops over the sum of op latencies, p50 the median op
/// latency, and the tail the highest percentile with at least 10 samples
/// beyond it. Throughput per tenth of the run is printed to show the
/// host's drift.
///
/// With `input_of` (the input each op served), the tail is taken over
/// inputs, each at its median latency. execute_drift runs each of its 512
/// (query, plan) inputs about 100 times in a 20 s run; over executions,
/// the 11 slowest were repeats of one or two inputs at the host's worst
/// moments, and moved 0.29 between seeds where throughput moved 0.16.
void PrintLatency(std::vector<Metric>* m, const std::vector<double>& lat_ms,
                  const std::vector<uint32_t>* input_of = nullptr) {
  double busy_s = 0;
  for (double l : lat_ms) busy_s += l * 1e-3;
  Tail t;
  if (input_of) {
    std::vector<std::vector<double>> by_input;
    for (size_t i = 0; i < lat_ms.size(); ++i) {
      uint32_t k = (*input_of)[i];
      if (k >= by_input.size()) by_input.resize(k + 1);
      by_input[k].push_back(lat_ms[i]);
    }
    std::vector<double> medians;
    for (const std::vector<double>& v : by_input) {
      if (!v.empty()) medians.push_back(Median(v));
    }
    t = TailOf(medians);
    std::printf("latency_tail_ms is p%.3f over %zu inputs at their median "
                "latency\n",
                t.percentile, t.samples);
  } else {
    t = TailOf(lat_ms);
    std::printf("latency_tail_ms is p%.3f over %zu samples\n", t.percentile,
                t.samples);
  }
  std::printf("throughput_qps by tenth of the run:");
  size_t per = std::max<size_t>(1, lat_ms.size() / 10);
  for (size_t b = 0; b + per <= lat_ms.size(); b += per) {
    double chunk_s = 0;
    for (size_t i = b; i < b + per; ++i) chunk_s += lat_ms[i] * 1e-3;
    std::printf(" %.6g", static_cast<double>(per) / chunk_s);
  }
  std::printf("\n");
  m->push_back(
      {"throughput_qps", static_cast<double>(lat_ms.size()) / busy_s, "1/s"});
  m->push_back({"latency_p50_ms", Median(lat_ms), "ms"});
  m->push_back({"latency_tail_ms", t.value, "ms"});
}

void PrintShares(const LayerTimes& t) {
  for (uint32_t n = kSpanDecode; n < kNumSpanNames; ++n) {
    if (t.by_layer[n].empty()) continue;
    std::printf("share %-18s %.4f of request time\n", kSpanNames[n],
                t.request_total_us > 0
                    ? t.layer_total_us[n] / t.request_total_us
                    : 0);
  }
}

double P50Us(const LayerTimes& t, SpanName n) {
  return Median(t.by_layer[n]);
}

int Run(const Args& args) {
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  size_t ops = std::max(
      w->min_ops,
      static_cast<size_t>(std::llround(w->ops_per_second * args.seconds)));
  ops = (ops + w->period - 1) / w->period * w->period;
  uint64_t seed = WorkloadSeed(*w, args.seed);
  std::printf("workload %s seed %llu ops %zu trace %d\n", w->name,
              static_cast<unsigned long long>(args.seed), ops,
              args.trace ? 1 : 0);

  Optimizer optimizer;
  CostModel model;
  CpuRotation cpus;
  std::vector<Metric> metrics;
  std::vector<double> setup_times, generate_times, warmup_times,
      materialize_times;
  Digest digest;
  size_t attempted = ops;
  Grade grade;
  double untraced_p50 = 0, traced_p50 = 0;
  std::vector<std::pair<std::string, double>> layer;  // per-layer metrics

  if (w->kind != Kind::kExecuteDrift) {
    PlanningSetup s;
    for (int r = 0; r < kSetupRepeats; ++r) {
      cpus.Next();
      s = PlanningSetup{};
      setup_times.push_back(
          PlanningSetupOnce(*w, ops, seed, optimizer, model, &s));
      generate_times.push_back(s.generate_s);
      warmup_times.push_back(s.warmup_s);
    }
    PlanningPass p = RunPlanningPass(s, optimizer, model, false, &cpus);
    double peak_rss = PeakRssMb();
    std::vector<double> lat;
    for (const OpRecord& r : p.ops) lat.push_back(r.latency_ms);
    untraced_p50 = Median(lat);
    grade = GradePlanning(*w, s, p, optimizer, model);
    if (args.trace) {
      // Same inputs, fresh serving state, traced; the served bits must
      // match the untraced pass exactly.
      PlanningSetup ts;
      PlanningSetupOnce(*w, ops, seed, optimizer, model, &ts);
      PlanningPass tp = RunPlanningPass(ts, optimizer, model, true, &cpus);
      for (size_t i = 0; i < ops; ++i) {
        if (Bits(tp.ops[i].objective) != Bits(p.ops[i].objective) ||
            tp.ops[i].hit != p.ops[i].hit) {
          grade.Fail(i, "traced serve differs from untraced");
        }
      }
      LayerTimes t = SelfTimes(*tp.log);
      traced_p50 = P50Us(t, kSpanRequest) * 1e-3;
      PrintShares(t);
      size_t lookups = tp.after.lookups() - tp.before.lookups();
      std::vector<double> opt_us = t.by_layer[kSpanOptimize];
      double denom = static_cast<double>(tp.candidates +
                                         tp.pruned_candidates);
      layer = {
          {"wire.decode_us", P50Us(t, kSpanDecode)},
          {"wire.encode_us", P50Us(t, kSpanEncode)},
          {"wire.request_bytes", static_cast<double>(tp.request_bytes)},
          {"wire.response_bytes", static_cast<double>(tp.response_bytes)},
          {"rewrite.us", P50Us(t, kSpanRewrite)},
          {"rewrite.passes_applied", static_cast<double>(tp.passes_applied)},
          {"signature.us", P50Us(t, kSpanSignature)},
          {"signature.bytes", static_cast<double>(tp.signature_bytes)},
          {"plan_cache.lookup_us", P50Us(t, kSpanLookup)},
          {"plan_cache.hit_ratio",
           lookups ? static_cast<double>(tp.after.hits - tp.before.hits) /
                         static_cast<double>(lookups)
                   : 0},
          {"plan_cache.insert_us", P50Us(t, kSpanInsert)},
          {"plan_cache.evictions",
           static_cast<double>(tp.after.evictions - tp.before.evictions)},
          {"optimizer.us", Median(opt_us)},
          {"optimizer.tail_us", TailOf(opt_us).value},
          {"optimizer.cost_evaluations",
           static_cast<double>(tp.cost_evaluations)},
          {"optimizer.candidates", static_cast<double>(tp.candidates)},
          {"optimizer.pruned_share",
           denom > 0 ? static_cast<double>(tp.pruned_candidates) / denom : 0},
          {"trace.unattributed_share",
           t.request_total_us > 0
               ? (t.request_total_us - t.child_total_us) / t.request_total_us
               : 0},
      };
      std::printf("optimizer.tail_us is p%.3f over %zu samples\n",
                  TailOf(opt_us).percentile, opt_us.size());
      if (!args.spans_out.empty()) tp.log->Write(args.spans_out);
    }
    PrintLatency(&metrics, lat);
    metrics.push_back({"peak_rss_mb", peak_rss, "MB"});
    // Counts (identical with or without tracing) go into the digest.
    for (const OpRecord& r : p.ops) digest.AddDouble(r.objective);
    size_t lookups = p.after.lookups() - p.before.lookups();
    size_t hits = p.after.hits - p.before.hits;
    for (size_t v : {lookups, hits, p.after.evictions - p.before.evictions,
                     p.passes_applied, p.request_bytes, p.response_bytes,
                     p.cost_evaluations, p.candidates, p.pruned_candidates}) {
      digest.Add(v);
    }
    std::printf("counts: lookups %zu hits %zu evictions %zu passes %zu "
                "cost_evaluations %zu candidates %zu pruned %zu\n",
                lookups, hits, p.after.evictions - p.before.evictions,
                p.passes_applied, p.cost_evaluations, p.candidates,
                p.pruned_candidates);
  } else {
    DriftEnv env;
    DriftSetup s;
    for (int r = 0; r < kSetupRepeats; ++r) {
      cpus.Next();
      s = DriftSetup{};
      setup_times.push_back(DriftSetupOnce(ops, seed, env, optimizer, model,
                                           &s));
      generate_times.push_back(s.generate_s);
      warmup_times.push_back(s.warmup_s);
      materialize_times.push_back(s.materialize_s);
    }
    std::vector<DriftRecord> recs = RunDriftPass(s, env, model, nullptr, &cpus);
    double peak_rss = PeakRssMb();
    std::vector<double> lat;
    std::vector<uint32_t> input_of;
    for (size_t i = 0; i < recs.size(); ++i) {
      lat.push_back(recs[i].latency_ms);
      input_of.push_back(2 * s.ops[i].query + (s.ops[i].lec ? 0 : 1));
    }
    untraced_p50 = Median(lat);
    grade = GradeDrift(s, recs, env);
    uint64_t io = 0, reopt = 0, drifted = 0;
    for (const DriftRecord& r : recs) {
      digest.Add(r.io);
      digest.Add(static_cast<uint64_t>(r.reoptimizations));
      digest.Add(r.payload_hash);
      io += r.io;
      reopt += static_cast<uint64_t>(r.reoptimizations);
      drifted += static_cast<uint64_t>(r.drifted);
    }
    digest.Add(io);
    digest.Add(reopt);
    digest.Add(drifted);
    std::printf("counts: page_io %llu reoptimizations %llu drifted_phases "
                "%llu\n",
                static_cast<unsigned long long>(io),
                static_cast<unsigned long long>(reopt),
                static_cast<unsigned long long>(drifted));
    if (args.trace) {
      DriftSetup ts;
      DriftSetupOnce(ops, seed, env, optimizer, model, &ts);
      SpanLog tlog(2 * ops);
      std::vector<DriftRecord> trecs = RunDriftPass(ts, env, model, &tlog, &cpus);
      for (size_t i = 0; i < ops; ++i) {
        if (trecs[i].io != recs[i].io ||
            trecs[i].payload_hash != recs[i].payload_hash) {
          grade.Fail(i, "traced execution differs from untraced");
        }
      }
      LayerTimes t = SelfTimes(tlog);
      traced_p50 = P50Us(t, kSpanRequest) * 1e-3;
      PrintShares(t);
      layer = {
          {"exec.us", P50Us(t, kSpanExec)},
          {"exec.page_io", static_cast<double>(io)},
          {"exec.reoptimizations", static_cast<double>(reopt)},
          {"exec.drifted_phases", static_cast<double>(drifted)},
          {"trace.unattributed_share",
           t.request_total_us > 0
               ? (t.request_total_us - t.child_total_us) / t.request_total_us
               : 0},
      };
      if (!args.spans_out.empty()) tlog.Write(args.spans_out);
    }
    PrintLatency(&metrics, lat, &input_of);
    metrics.push_back({"peak_rss_mb", peak_rss, "MB"});
  }

  double error_rate =
      static_cast<double>(grade.failed) / static_cast<double>(attempted);
  digest.AddDouble(grade.plan_cost_ratio);
  digest.AddDouble(grade.sum_cost_ratio);
  digest.AddDouble(error_rate);
  std::printf("setup_s by repeat:");
  for (double v : setup_times) std::printf(" %.6g", v);
  std::printf("\n");
  metrics.push_back({"setup_s", Median(setup_times), "s"});
  metrics.push_back({"plan_cost_ratio", grade.plan_cost_ratio, "ratio"});
  std::printf("sum_cost_ratio %.17g (sum of LEC costs / sum of LSC costs)\n",
              grade.sum_cost_ratio);
  std::printf("error_rate %.6g (%zu of %zu ops failed)\n", error_rate,
              grade.failed, attempted);
  for (const std::string& note : grade.notes) {
    std::printf("check failed: %s\n", note.c_str());
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest.h));

  if (args.trace) {
    // Every per-layer metric is printed on every workload; a layer the
    // workload does not run reads 0.
    struct LayerMetric {
      const char* name;
      const char* unit;
    };
    const LayerMetric kLayerMetrics[] = {
        {"wire.decode_us", "us"},
        {"wire.encode_us", "us"},
        {"wire.request_bytes", "bytes"},
        {"wire.response_bytes", "bytes"},
        {"rewrite.us", "us"},
        {"rewrite.passes_applied", "count"},
        {"signature.us", "us"},
        {"signature.bytes", "bytes"},
        {"plan_cache.lookup_us", "us"},
        {"plan_cache.hit_ratio", "ratio"},
        {"plan_cache.insert_us", "us"},
        {"plan_cache.evictions", "count"},
        {"optimizer.us", "us"},
        {"optimizer.tail_us", "us"},
        {"optimizer.cost_evaluations", "count"},
        {"optimizer.candidates", "count"},
        {"optimizer.pruned_share", "ratio"},
        {"exec.us", "us"},
        {"exec.page_io", "count"},
        {"exec.reoptimizations", "count"},
        {"exec.drifted_phases", "count"},
    };
    auto find = [&](const std::string& name) {
      for (const auto& [k, v] : layer) {
        if (k == name) return v;
      }
      return 0.0;
    };
    metrics.clear();
    for (const LayerMetric& lm : kLayerMetrics) {
      metrics.push_back({lm.name, find(lm.name), lm.unit});
    }
    metrics.push_back({"storage.materialize_s", Median(materialize_times),
                       "s"});
    metrics.push_back({"setup.generate_s", Median(generate_times), "s"});
    metrics.push_back({"setup.warmup_s", Median(warmup_times), "s"});
    metrics.push_back(
        {"trace.unattributed_share", find("trace.unattributed_share"),
         "ratio"});
    metrics.push_back({"trace.overhead_share",
                       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0,
                       "ratio"});
  }
  for (const Metric& m : metrics) {
    std::printf("METRIC %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  bool correct = grade.failed == 0;
  std::printf("RESULT %d %zu %zu\n", correct ? 1 : 0, attempted,
              grade.failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lec_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lec_bench: %s\n", e.what());
    return 1;
  }
}
