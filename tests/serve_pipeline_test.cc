// The ServePipeline contract (service/serve_pipeline.h): coalesced
// waiters receive the bit-identical result of ONE optimization, a full
// queue rejects immediately, deadline degradation is deterministic under
// an injected clock, shutdown drains every admitted job, and any worker
// count serves bit-identically to a sequential facade run. Also the PR-5
// miss-then-insert race regression: N concurrent identical cold requests
// cost exactly one strategy invocation. A whole workload served as a
// batch matches direct optimization and is invariant to the worker count.
#include "service/serve_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dist/builders.h"
#include "optimizer/algorithm_c.h"
#include "query/generator.h"
#include "service/plan_cache.h"
#include "util/rng.h"

namespace lec {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

serde::ServeRequest MakeRequest(uint64_t seed,
                                const std::string& strategy = "lec_static",
                                int num_tables = 5) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.num_tables = num_tables;
  wopts.shape = JoinGraphShape::kChain;
  wopts.selectivity_spread = 3.0;
  wopts.table_size_spread = 2.0;
  serde::ServeRequest request;
  request.strategy = strategy;
  request.workload = GenerateWorkload(wopts, &rng);
  request.memory = Distribution({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  request.seed = seed;
  return request;
}

/// The sequential ground truth: the same request through a plain facade,
/// with the same field mapping the pipeline applies and no caches.
OptimizeResult Reference(const serde::ServeRequest& r, StrategyId id,
                         const CostModel& model, const Optimizer& opt) {
  OptimizeRequest req;
  req.query = &r.workload.query;
  req.catalog = &r.workload.catalog;
  req.model = &model;
  req.memory = &r.memory;
  req.options = r.options;
  req.options.plan_cache = nullptr;
  req.options.dist_arena = nullptr;
  req.lsc_estimate = r.lsc_estimate;
  req.top_c = r.top_c;
  if (r.chain) req.chain = &*r.chain;
  req.seed = r.seed;
  req.randomized_restarts = r.randomized_restarts;
  req.randomized_patience = r.randomized_patience;
  req.sample_predicate = r.sample_predicate;
  return opt.Optimize(id, req);
}

void ExpectBitEqual(const OptimizeResult& a, const OptimizeResult& b) {
  EXPECT_EQ(Bits(a.objective), Bits(b.objective));
  EXPECT_EQ(a.candidates_considered, b.candidates_considered);
  EXPECT_EQ(a.cost_evaluations, b.cost_evaluations);
  EXPECT_EQ(a.candidates_by_phase, b.candidates_by_phase);
  EXPECT_EQ(a.pruned_expansions, b.pruned_expansions);
  EXPECT_TRUE(PlanEquals(a.plan, b.plan));
}

/// A batch corpus served as a workload: alternating 4-table chains and
/// 5-table stars, half with an ORDER BY, all under one memory distribution.
std::vector<serde::ServeRequest> MakeBatch(size_t count,
                                           const std::string& strategy) {
  std::vector<serde::ServeRequest> batch;
  Rng rng(7);
  for (size_t i = 0; i < count; ++i) {
    WorkloadOptions wopts;
    wopts.num_tables = 4 + static_cast<int>(i % 2);
    wopts.shape = i % 2 == 0 ? JoinGraphShape::kChain : JoinGraphShape::kStar;
    wopts.order_by_probability = 0.5;
    serde::ServeRequest request;
    request.strategy = strategy;
    request.workload = GenerateWorkload(wopts, &rng);
    request.memory = UniformBuckets(50, 2000, 4);
    batch.push_back(std::move(request));
  }
  return batch;
}

/// Serves `batch` through a fresh pipeline with `workers` workers and a
/// shared PlanCache; returns the outcomes in submission order.
std::vector<OptimizeResult> ServeBatch(
    const std::vector<serde::ServeRequest>& batch, int workers) {
  PlanCache cache;
  ServePipeline::Options opts;
  opts.workers = workers;
  opts.plan_cache = &cache;
  ServePipeline pipeline(opts);
  std::vector<ServeTicket> tickets;
  for (const serde::ServeRequest& r : batch) {
    tickets.push_back(pipeline.Submit(r));
  }
  std::vector<OptimizeResult> results;
  for (const ServeTicket& t : tickets) {
    const ServeOutcome& out = t.Wait();
    EXPECT_EQ(out.status, ServeStatus::kOk);
    results.push_back(out.result);
  }
  ServePipeline::Stats stats = pipeline.stats();
  EXPECT_EQ(stats.served, batch.size());
  return results;
}

/// A gate the test opens to let gated strategy invocations proceed, plus
/// an entered-counter so the test can wait for a worker to actually be
/// mid-compute (not just queued).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

/// Facade whose kLecStatic first parks at `gate`, then counts, then
/// delegates to `inner` (cache stripped so only the PIPELINE-visible
/// facade touches the shared PlanCache — one lookup/insert per compute).
class GatedOptimizer {
 public:
  GatedOptimizer(Gate* gate, std::atomic<int>* count) {
    facade_.Register(
        StrategyId::kLecStatic, [this, gate, count](OptimizeRequest req) {
          if (gate != nullptr) gate->Enter();
          if (count != nullptr) count->fetch_add(1);
          req.options.plan_cache = nullptr;
          return inner_.Optimize(StrategyId::kLecStatic, req);
        });
  }
  const Optimizer& facade() const { return facade_; }

 private:
  Optimizer inner_;
  Optimizer facade_;
};

class ServePipelineTest : public ::testing::Test {
 protected:
  CostModel model_;
  Optimizer plain_;
};

TEST_F(ServePipelineTest, CoalescedWaitersShareOneBitIdenticalComputation) {
  Gate gate;
  std::atomic<int> computes{0};
  GatedOptimizer gated(&gate, &computes);
  ServePipeline::Options opts;
  opts.workers = 2;
  opts.optimizer = &gated.facade();
  ServePipeline pipeline(opts);

  serde::ServeRequest request = MakeRequest(1);
  ServeTicket leader = pipeline.Submit(request);
  gate.WaitEntered(1);  // leader is mid-compute — duplicates must attach
  std::vector<ServeTicket> waiters;
  for (int i = 0; i < 4; ++i) waiters.push_back(pipeline.Submit(request));
  EXPECT_EQ(pipeline.stats().coalesced, 4u);
  gate.Open();

  OptimizeResult expected =
      Reference(request, StrategyId::kLecStatic, model_, plain_);
  const ServeOutcome& lead = leader.Wait();
  ASSERT_EQ(lead.status, ServeStatus::kOk);
  EXPECT_FALSE(lead.coalesced);
  ExpectBitEqual(lead.result, expected);
  for (const ServeTicket& t : waiters) {
    const ServeOutcome& out = t.Wait();
    ASSERT_EQ(out.status, ServeStatus::kOk);
    EXPECT_TRUE(out.coalesced);
    EXPECT_FALSE(out.degraded);
    ExpectBitEqual(out.result, expected);
  }
  EXPECT_EQ(computes.load(), 1);
  ServePipeline::Stats stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.computed, 1u);
}

TEST_F(ServePipelineTest, RequestsDifferingOnlyInAFilterNeverCoalesce) {
  // The canonical QuerySignature does not write filters (a rewritten query
  // has none left), so keying singleflight on the raw request's signature
  // merged these two and served one of them the other's plan. Under the
  // rewrite passes the filter decides the plan.
  auto filtered = [](double selectivity) {
    serde::ServeRequest r;
    r.strategy = "lec_static";
    r.workload.catalog.AddTable("a", 1000);
    r.workload.catalog.AddTable("b", 2000);
    r.workload.catalog.AddTable("c", 500);
    for (TableId t = 0; t < 3; ++t) r.workload.query.AddTable(t);
    r.workload.query.AddPredicate(0, 1, 0.001);
    r.workload.query.AddPredicate(1, 2, 0.01);
    r.workload.query.AddFilter(0, selectivity);
    r.memory = Distribution({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
    r.options.rewrite_mode = RewriteMode::kOn;
    return r;
  };
  serde::ServeRequest loose = filtered(0.5);
  serde::ServeRequest tight = filtered(0.001);

  Gate gate;
  std::atomic<int> computes{0};
  GatedOptimizer gated(&gate, &computes);
  ServePipeline::Options opts;
  opts.workers = 1;
  opts.optimizer = &gated.facade();
  ServePipeline pipeline(opts);

  ServeTicket blocker = pipeline.Submit(MakeRequest(5));
  gate.WaitEntered(1);  // the only worker is parked; both below queue
  ServeTicket a = pipeline.Submit(loose);
  ServeTicket b = pipeline.Submit(tight);
  EXPECT_EQ(pipeline.stats().coalesced, 0u);
  gate.Open();

  EXPECT_EQ(blocker.Wait().status, ServeStatus::kOk);
  const ServeOutcome& out_a = a.Wait();
  const ServeOutcome& out_b = b.Wait();
  ASSERT_EQ(out_a.status, ServeStatus::kOk);
  ASSERT_EQ(out_b.status, ServeStatus::kOk);
  EXPECT_FALSE(out_a.coalesced);
  EXPECT_FALSE(out_b.coalesced);
  OptimizeResult want_a =
      Reference(loose, StrategyId::kLecStatic, model_, plain_);
  OptimizeResult want_b =
      Reference(tight, StrategyId::kLecStatic, model_, plain_);
  EXPECT_NE(Bits(want_a.objective), Bits(want_b.objective));
  ExpectBitEqual(out_a.result, want_a);
  ExpectBitEqual(out_b.result, want_b);
  EXPECT_EQ(computes.load(), 3);
}

TEST_F(ServePipelineTest, QueueFullRejectsImmediatelyWithTypedStatus) {
  Gate gate;
  GatedOptimizer gated(&gate, nullptr);
  ServePipeline::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.optimizer = &gated.facade();
  ServePipeline pipeline(opts);

  ServeTicket a = pipeline.Submit(MakeRequest(10));
  gate.WaitEntered(1);  // worker busy on A; the queue is empty again
  ServeTicket b = pipeline.Submit(MakeRequest(11));  // takes the only slot
  ServeTicket c = pipeline.Submit(MakeRequest(12));  // must bounce
  EXPECT_TRUE(c.Done());  // rejection is immediate, no worker involved
  const ServeOutcome& rejected = c.Wait();
  EXPECT_EQ(rejected.status, ServeStatus::kRejected);
  EXPECT_EQ(pipeline.stats().rejected, 1u);
  EXPECT_EQ(pipeline.stats().queue_depth_hwm, 1u);

  gate.Open();
  EXPECT_EQ(a.Wait().status, ServeStatus::kOk);
  EXPECT_EQ(b.Wait().status, ServeStatus::kOk);
}

TEST_F(ServePipelineTest, DeadlineDegradationIsDeterministicUnderManualClock) {
  auto now = std::make_shared<std::atomic<double>>(100.0);
  ServePipeline::Options opts;
  opts.workers = 1;
  opts.min_degrade_headroom_seconds = 10.0;
  opts.clock = [now] { return now->load(); };
  ServePipeline pipeline(opts);

  serde::ServeRequest request = MakeRequest(20);

  // Budget below the headroom floor: the worker must not start the full
  // optimization; it serves the fallback and stamps the outcome.
  ServeOutcome degraded = pipeline.Submit(request, 5.0).Wait();
  ASSERT_EQ(degraded.status, ServeStatus::kOk);
  EXPECT_TRUE(degraded.degraded);
  ExpectBitEqual(degraded.result,
                 Reference(request, StrategyId::kLsc, model_, plain_));

  // Ample budget: full fidelity.
  ServeOutcome full = pipeline.Submit(request, 1000.0).Wait();
  ASSERT_EQ(full.status, ServeStatus::kOk);
  EXPECT_FALSE(full.degraded);
  ExpectBitEqual(full.result,
                 Reference(request, StrategyId::kLecStatic, model_, plain_));

  // An exhausted budget degrades regardless of the estimate.
  now->store(200.0);
  ServeOutcome late = pipeline.Submit(request, 0.0).Wait();
  ASSERT_EQ(late.status, ServeStatus::kOk);
  EXPECT_TRUE(late.degraded);

  // No budget at all never degrades.
  ServeOutcome open = pipeline.Submit(request).Wait();
  ASSERT_EQ(open.status, ServeStatus::kOk);
  EXPECT_FALSE(open.degraded);

  EXPECT_EQ(pipeline.stats().degraded, 2u);
}

TEST_F(ServePipelineTest, EstimateCalibratesFromNonDegradedServesOnly) {
  auto now = std::make_shared<std::atomic<double>>(0.0);
  ServePipeline::Options opts;
  opts.workers = 1;
  opts.clock = [now] { return now->load(); };

  // Each compute "takes" 4 seconds on the manual clock: advance it from
  // inside the strategy, which runs exactly once per computed job.
  Optimizer facade;
  Optimizer inner;
  facade.Register(StrategyId::kLecStatic,
                  [&inner, now](OptimizeRequest req) {
                    now->fetch_add(4.0);
                    req.options.plan_cache = nullptr;
                    return inner.Optimize(StrategyId::kLecStatic, req);
                  });
  opts.optimizer = &facade;
  ServePipeline pipeline(opts);

  serde::ServeRequest request = MakeRequest(30);
  EXPECT_DOUBLE_EQ(pipeline.EstimateSeconds(), 0.0);
  pipeline.Submit(request, 1000.0).Wait();
  // First observation seeds the EWMA directly.
  EXPECT_DOUBLE_EQ(pipeline.EstimateSeconds(), 4.0);

  // A budget below the calibrated estimate now degrades. The degraded
  // serve (fallback runs, taking ~0 clock time) only NUDGES the estimate
  // toward the observed fallback cost at the slow decay rate — one
  // overload blip cannot whipsaw the full-compute estimate, but it does
  // move it (the pre-fix behavior froze it at 4.0 forever; see the
  // sustained-overload test below).
  serde::ServeRequest other = MakeRequest(31);
  ServeOutcome out = pipeline.Submit(other, 2.0).Wait();
  ASSERT_EQ(out.status, ServeStatus::kOk);
  EXPECT_TRUE(out.degraded);
  EXPECT_DOUBLE_EQ(pipeline.EstimateSeconds(), 0.95 * 4.0);
  EXPECT_DOUBLE_EQ(pipeline.FallbackEstimateSeconds(), 0.0);
}

TEST_F(ServePipelineTest, SustainedOverloadDecaysEstimateAndProbesRecovery) {
  // Regression: the estimate EWMA used to update only on non-degraded
  // computes, so once the estimate exceeded every caller's budget the
  // pipeline degraded forever — the estimate froze at its last
  // pre-overload value even after computes got cheap again. The fix
  // decays the estimate toward the observed fallback cost on every
  // degraded serve, so sustained overload eventually probes a full
  // compute and recalibrates.
  auto now = std::make_shared<std::atomic<double>>(0.0);
  ServePipeline::Options opts;
  opts.workers = 1;
  opts.clock = [now] { return now->load(); };

  Optimizer facade;
  Optimizer inner;
  facade.Register(StrategyId::kLecStatic,
                  [&inner, now](OptimizeRequest req) {
                    now->fetch_add(4.0);  // the "expensive" full compute
                    req.options.plan_cache = nullptr;
                    return inner.Optimize(StrategyId::kLecStatic, req);
                  });
  facade.Register(StrategyId::kLsc, [&inner, now](OptimizeRequest req) {
    now->fetch_add(0.5);  // the cheap fallback
    req.options.plan_cache = nullptr;
    return inner.Optimize(StrategyId::kLsc, req);
  });
  opts.optimizer = &facade;
  ServePipeline pipeline(opts);

  serde::ServeRequest request = MakeRequest(32);
  pipeline.Submit(request, 1000.0).Wait();
  ASSERT_DOUBLE_EQ(pipeline.EstimateSeconds(), 4.0);

  // Sustained overload: every caller arrives with a 2-second budget.
  // Each degraded serve decays the estimate by one step of
  //   e' = (1 - 0.05) * e + 0.05 * fallback_cost
  // so e_k = 0.95^k * 4 + (1 - 0.95^k) * 0.5, which crosses below the
  // 2-second budget at k = 17 — the 18th serve runs the full compute.
  OptimizeResult fallback_ref =
      Reference(request, StrategyId::kLsc, model_, plain_);
  int degraded_rounds = 0;
  double prev_estimate = pipeline.EstimateSeconds();
  for (int round = 0; round < 40; ++round) {
    ServeOutcome out = pipeline.Submit(request, 2.0).Wait();
    ASSERT_EQ(out.status, ServeStatus::kOk);
    if (!out.degraded) break;  // the probe: overload no longer absorbing
    ++degraded_rounds;
    ExpectBitEqual(out.result, fallback_ref);
    double estimate = pipeline.EstimateSeconds();
    EXPECT_LT(estimate, prev_estimate);  // never frozen
    double expected = std::pow(0.95, degraded_rounds) * 4.0 +
                      (1.0 - std::pow(0.95, degraded_rounds)) * 0.5;
    EXPECT_NEAR(estimate, expected, 1e-12);
    EXPECT_DOUBLE_EQ(pipeline.FallbackEstimateSeconds(), 0.5);
    prev_estimate = estimate;
  }
  // The loop must have ended via a full-fidelity probe, not exhaustion.
  EXPECT_EQ(degraded_rounds, 17);
  // The probe observed the still-expensive compute and recalibrated the
  // estimate upward (0.8 * e + 0.2 * 4.0) — back above the budget, so
  // the NEXT serve degrades again: the pipeline oscillates between
  // mostly-degraded serves and occasional probes instead of freezing.
  EXPECT_GT(pipeline.EstimateSeconds(), 2.0);
  ServeOutcome again = pipeline.Submit(request, 2.0).Wait();
  ASSERT_EQ(again.status, ServeStatus::kOk);
  EXPECT_TRUE(again.degraded);
}

TEST_F(ServePipelineTest, ShutdownDrainsAdmittedWorkAndRefusesNewWork) {
  ServePipeline::Options opts;
  opts.workers = 1;  // jobs are still queued when Shutdown() lands
  ServePipeline pipeline(opts);
  std::vector<ServeTicket> tickets;
  for (uint64_t s = 40; s < 45; ++s) {
    tickets.push_back(pipeline.Submit(MakeRequest(s)));
  }
  pipeline.Shutdown();
  for (const ServeTicket& t : tickets) {
    ASSERT_TRUE(t.Done());  // Shutdown() returns only once all resolved
    EXPECT_EQ(t.Wait().status, ServeStatus::kOk);
  }
  ServeOutcome refused = pipeline.Submit(MakeRequest(46)).Wait();
  EXPECT_EQ(refused.status, ServeStatus::kShutdown);
  EXPECT_EQ(pipeline.stats().shutdown, 1u);
  pipeline.Shutdown();  // idempotent
}

TEST_F(ServePipelineTest, MissThenInsertRaceCostsExactlyOneComputation) {
  // PR-5 regression: two near-simultaneous misses on the same signature
  // both computed (the cache's lookup and insert are not one atomic
  // step). Routed through the singleflight table, a cold 16-way burst
  // from 4 submitter threads must cost exactly ONE strategy invocation.
  std::atomic<int> computes{0};
  GatedOptimizer gated(nullptr, &computes);
  PlanCache cache;
  ServePipeline::Options opts;
  opts.workers = 4;
  opts.plan_cache = &cache;
  opts.optimizer = &gated.facade();
  ServePipeline pipeline(opts);

  serde::ServeRequest request = MakeRequest(50);
  std::vector<std::thread> submitters;
  std::vector<ServeTicket> tickets(16);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        tickets[static_cast<size_t>(t * 4 + i)] = pipeline.Submit(request);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  OptimizeResult expected =
      Reference(request, StrategyId::kLecStatic, model_, plain_);
  for (const ServeTicket& t : tickets) {
    const ServeOutcome& out = t.Wait();
    ASSERT_EQ(out.status, ServeStatus::kOk);
    ExpectBitEqual(out.result, expected);
  }
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST_F(ServePipelineTest, MemoHitServedWithAdmissionKeyIsBitIdentical) {
  // The worker hands the key Submit built to the facade's request memo.
  // A repeat served through that memo must be bit-identical to a direct,
  // uncached Optimize, and a direct Optimize on the same cache (which
  // builds its own key) must find the same alias.
  for (const char* strategy : {"lec_static", "algorithm_d"}) {
    PlanCache cache;
    ServePipeline::Options opts;
    opts.workers = 1;
    opts.plan_cache = &cache;
    ServePipeline pipeline(opts);

    serde::ServeRequest request = MakeRequest(70, strategy, 6);
    request.options.rewrite_mode = RewriteMode::kOn;
    StrategyId id = *ParseStrategy(strategy);
    OptimizeResult expected = Reference(request, id, model_, plain_);

    ServeTicket first_ticket = pipeline.Submit(request);
    const ServeOutcome& first = first_ticket.Wait();
    ASSERT_EQ(first.status, ServeStatus::kOk) << first.error;
    EXPECT_EQ(cache.stats().rewrites_skipped, 0u);
    ServeTicket repeat_ticket = pipeline.Submit(request);
    const ServeOutcome& repeat = repeat_ticket.Wait();
    ASSERT_EQ(repeat.status, ServeStatus::kOk) << repeat.error;
    EXPECT_EQ(cache.stats().rewrites_skipped, 1u) << strategy;
    ExpectBitEqual(first.result, expected);
    ExpectBitEqual(repeat.result, expected);
    ASSERT_NE(repeat.result.rewrite, nullptr);
    EXPECT_EQ(repeat.result.rewrite, first.result.rewrite);

    OptimizeRequest direct;
    direct.query = &request.workload.query;
    direct.catalog = &request.workload.catalog;
    direct.model = &model_;
    direct.memory = &request.memory;
    direct.options = request.options;
    direct.options.plan_cache = &cache;
    direct.seed = request.seed;
    OptimizeResult direct_hit = plain_.Optimize(id, direct);
    EXPECT_EQ(cache.stats().rewrites_skipped, 2u) << strategy;
    ExpectBitEqual(direct_hit, expected);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
}

TEST_F(ServePipelineTest, CoalesceOffAblationComputesEveryDuplicate) {
  Gate gate;
  std::atomic<int> computes{0};
  GatedOptimizer gated(&gate, &computes);
  ServePipeline::Options opts;
  opts.workers = 1;
  opts.coalesce = false;
  opts.optimizer = &gated.facade();
  ServePipeline pipeline(opts);

  serde::ServeRequest request = MakeRequest(60);
  std::vector<ServeTicket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(pipeline.Submit(request));
  gate.Open();
  for (const ServeTicket& t : tickets) {
    EXPECT_EQ(t.Wait().status, ServeStatus::kOk);
  }
  EXPECT_EQ(computes.load(), 3);
  EXPECT_EQ(pipeline.stats().coalesced, 0u);
}

TEST_F(ServePipelineTest, UnknownStrategyResolvesTypedErrorImmediately) {
  ServePipeline pipeline(ServePipeline::Options{});
  ServeTicket t = pipeline.Submit(MakeRequest(70, "no_such_strategy"));
  EXPECT_TRUE(t.Done());
  const ServeOutcome& out = t.Wait();
  EXPECT_EQ(out.status, ServeStatus::kError);
  EXPECT_NE(out.error.find("no_such_strategy"), std::string::npos);
  EXPECT_EQ(pipeline.stats().errors, 1u);
}

TEST_F(ServePipelineTest, FourThreadHammerMatchesSequentialFacadeBitForBit) {
  PlanCache cache;
  ServePipeline::Options opts;
  opts.workers = 4;
  opts.plan_cache = &cache;
  ServePipeline pipeline(opts);

  // 8 unique workloads across two strategies, 96 submissions from 4
  // threads in an interleaving-dependent order — every outcome must still
  // be bit-identical to its sequential reference.
  const char* strategies[2] = {"lec_static", "lsc"};
  std::vector<serde::ServeRequest> corpus;
  for (uint64_t s = 0; s < 8; ++s) {
    corpus.push_back(MakeRequest(80 + s, strategies[s % 2]));
  }
  std::vector<OptimizeResult> expected;
  for (const serde::ServeRequest& r : corpus) {
    expected.push_back(
        Reference(r, *ParseStrategy(r.strategy), model_, plain_));
  }

  std::vector<std::vector<ServeTicket>> issued(4);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      for (int i = 0; i < 24; ++i) {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, 7));
        issued[static_cast<size_t>(t)].push_back(
            pipeline.Submit(corpus[pick]));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (int t = 0; t < 4; ++t) {
    Rng rng(900 + static_cast<uint64_t>(t));  // replay the picks
    for (int i = 0; i < 24; ++i) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, 7));
      const ServeOutcome& out = issued[static_cast<size_t>(t)]
                                    [static_cast<size_t>(i)].Wait();
      ASSERT_EQ(out.status, ServeStatus::kOk);
      ExpectBitEqual(out.result, expected[pick]);
    }
  }
  ServePipeline::Stats stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, 96u);
  EXPECT_EQ(stats.served, 96u);
  EXPECT_EQ(stats.served + stats.rejected + stats.shutdown + stats.errors,
            stats.submitted);
}

TEST_F(ServePipelineTest, BatchObjectivesMatchDirectOptimization) {
  std::vector<serde::ServeRequest> batch = MakeBatch(8, "lec_static");
  std::vector<OptimizeResult> served = ServeBatch(batch, 2);
  ASSERT_EQ(served.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    OptimizeResult direct =
        OptimizeLecStatic(batch[i].workload.query, batch[i].workload.catalog,
                          model_, batch[i].memory);
    EXPECT_EQ(served[i].objective, direct.objective) << "query " << i;
  }
}

TEST_F(ServePipelineTest, BatchWorkerCountInvariant) {
  std::vector<serde::ServeRequest> batch = MakeBatch(12, "algorithm_d");
  std::vector<OptimizeResult> one = ServeBatch(batch, 1);
  ASSERT_EQ(one.size(), batch.size());
  for (int workers : {2, 4}) {
    std::vector<OptimizeResult> many = ServeBatch(batch, workers);
    ASSERT_EQ(many.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(Bits(many[i].objective), Bits(one[i].objective))
          << "query " << i << " at " << workers << " workers";
    }
  }
}

TEST_F(ServePipelineTest, BatchPlansAreWorkerCountInvariant) {
  std::vector<serde::ServeRequest> batch = MakeBatch(9, "lec_static");
  std::vector<OptimizeResult> one = ServeBatch(batch, 1);
  std::vector<OptimizeResult> three = ServeBatch(batch, 3);
  ASSERT_EQ(one.size(), batch.size());
  ASSERT_EQ(three.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_NE(one[i].plan, nullptr) << "query " << i;
    EXPECT_TRUE(PlanEquals(one[i].plan, three[i].plan)) << "query " << i;
  }
}

}  // namespace
}  // namespace lec
