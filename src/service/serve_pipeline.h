// Asynchronous serving pipeline — admission, coalescing, backpressure,
// deadline-aware degradation.
//
// The one serving path for concurrent traffic (service/wire_server.h
// submits here): callers Submit() requests from any number of protocol
// threads, a bounded admission queue feeds a fixed pool of compute
// workers, and every request resolves to a ServeTicket the caller waits
// on. The thread split is deliberate (protocol threads never
// compute, compute workers never block on I/O — the executor/transaction
// separation a conventional DBMS front end uses): Submit() does only
// request keying and queue bookkeeping; all optimization runs on the
// worker pool.
//
// Three serving behaviors:
//
//   * In-flight coalescing (singleflight). Submissions are keyed by their
//     RequestKey (service/plan_cache.h): the bytes of every input the
//     result depends on, the query exactly as given — filters included,
//     which the canonical QuerySignature does not write because a
//     rewritten query has none left. While a request with key K is queued
//     or computing, further submissions with key K attach as WAITERS to
//     the same job instead of queueing their own: one optimization runs,
//     every waiter receives the bit-identical OptimizeResult. Relabeled
//     duplicates do not coalesce (their keys differ); they meet in the
//     plan cache instead. The key is also the plan cache's request-memo
//     key, so Submit signs nothing: the one signature per request is the
//     facade's, on the rewritten query, and only on a memo miss. This extends the PlanCache's "hit ≡ recompute"
//     contract to concurrent duplicates — the window where N identical
//     requests all missed the cache and all paid the full DP (the PR-5
//     miss-then-insert race) closes, because the insert is now routed
//     through the singleflight table: only the group leader runs the
//     facade (which performs the cache lookup/insert). Waiter outcomes are
//     flagged `coalesced`; stats count them.
//
//   * Backpressure. The admission queue is bounded. A submission that
//     finds the queue full is rejected IMMEDIATELY with a typed
//     ServeStatus::kRejected outcome — no unbounded buffering, no client
//     timeout discovering overload the slow way. (A coalesced attach never
//     rejects: it consumes no queue slot.)
//
//   * Deadline-aware degradation. A submission may carry a deadline
//     budget. When a worker dequeues a job whose remaining budget has
//     fallen below the pipeline's calibrated compute estimate (an EWMA of
//     observed full-optimization times, floored by
//     Options::min_degrade_headroom_seconds), it does not start work it
//     cannot finish in time: it serves the job with the configured cheaper
//     fallback strategy (default kLsc — the paper's traditional optimizer,
//     strictly cheaper than any LEC strategy) and stamps the outcome
//     `degraded` instead of timing out. A degraded result is bit-identical
//     to a direct facade run of the fallback strategy on the same request;
//     it is cached (and signature-keyed) under the fallback strategy, so
//     it can never be served as a full-fidelity answer later. Coalesced
//     waiters share the leader's degrade decision (their outcomes carry
//     the flag). Full-fidelity serves calibrate the estimate directly;
//     degraded serves feed a parallel fallback-cost EWMA and decay the
//     full estimate toward the observed fallback cost at a slower rate,
//     so sustained overload cannot freeze the estimate at its last
//     pre-overload value — it drifts down until a full compute is probed
//     and recalibrates it.
//
// Determinism contract (pinned by tests/serve_pipeline_test.cc and fuzz
// invariant I10): for any worker count, with coalescing on or off, and
// with or without deadline headroom, every kOk outcome's result is
// bit-identical (objective bits, structurally equal plan, same counters)
// to a sequential lec::Optimizer run of the same request — under the
// request's own strategy when not degraded, under the fallback strategy
// when degraded. Only elapsed_seconds and the outcome's degraded/coalesced
// markers may differ. This holds because every strategy is deterministic
// in the request (randomized search is seeded) and workers share no
// result-affecting mutable state (the plan cache's hits are bit-identical
// by its own contract).
//
// Time is injectable (Options::clock) so deadline behavior is testable
// without wall-clock flakiness; the default clock is steady_clock.
//
// Shutdown() stops admission (further Submits resolve kShutdown), DRAINS
// everything already admitted — queued jobs still run, in-flight jobs
// finish, every issued ticket resolves — then joins the workers. The
// destructor calls Shutdown().
#ifndef LECOPT_SERVICE_SERVE_PIPELINE_H_
#define LECOPT_SERVICE_SERVE_PIPELINE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "optimizer/optimizer.h"
#include "service/plan_cache.h"
#include "service/serde.h"

namespace lec {

/// How one submission resolved.
enum class ServeStatus : uint32_t {
  kOk = 0,        ///< served; `result` is valid
  kRejected = 1,  ///< admission queue full — backpressure, retry later
  kShutdown = 2,  ///< pipeline no longer accepts work
  kError = 3,     ///< malformed request or strategy failure; see `error`
};

/// Stable name for logs and the wire protocol ("ok", "rejected", ...).
std::string_view ServeStatusName(ServeStatus status);

/// The terminal state of one submission.
struct ServeOutcome {
  ServeStatus status = ServeStatus::kError;
  /// Valid iff status == kOk. For a coalesced waiter this is a copy of the
  /// leader's result (the plan tree is shared — plan nodes are immutable).
  OptimizeResult result;
  /// Served by the fallback strategy because the deadline budget was short.
  bool degraded = false;
  /// This submission attached to another request's in-flight computation.
  bool coalesced = false;
  /// status == kError: what went wrong.
  std::string error;
  /// Submit() to completion, in pipeline-clock seconds (queue wait +
  /// compute + coalesced wait; 0 for immediate rejections).
  double serve_seconds = 0;
};

/// Handle to one submission's eventual outcome. Copyable (shared state);
/// default-constructed tickets are empty and must not be waited on.
class ServeTicket {
 public:
  ServeTicket() = default;

  /// Blocks until the outcome is available, then returns it. The reference
  /// stays valid for the ticket's lifetime.
  const ServeOutcome& Wait() const;

  /// True once the outcome is available (Wait() would not block).
  bool Done() const;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class ServePipeline;
  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool done = false;
    ServeOutcome outcome;
    double submit_time = 0;  ///< pipeline-clock; for serve_seconds
  };
  explicit ServeTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class ServePipeline {
 public:
  struct Options {
    /// Compute worker threads; values < 1 are treated as 1.
    int workers = 2;
    /// Admission queue bound (jobs queued but not yet picked up); values
    /// < 1 are treated as 1. A submission finding the queue full is
    /// rejected immediately.
    size_t queue_capacity = 256;
    /// In-flight coalescing on the raw RequestKey. Off is the
    /// ablation/debug configuration — every submission queues its own job.
    bool coalesce = true;
    /// Optional shared whole-result cache (borrowed; internally
    /// synchronized). Attached to every worker request, so one leader's
    /// insert is every later request's hit.
    PlanCache* plan_cache = nullptr;
    /// The cheaper strategy degraded requests are served with. Must not
    /// require knobs the request lacks (kLsc never does).
    StrategyId fallback_strategy = StrategyId::kLsc;
    /// Floor on the calibrated compute estimate: degrade whenever the
    /// remaining budget is below max(EWMA estimate, this floor). The EWMA
    /// self-calibrates from observed serve times, so the floor mainly
    /// covers the cold start (first requests observe an estimate of 0 and
    /// only degrade on an already-exhausted budget).
    double min_degrade_headroom_seconds = 0;
    /// Monotonic clock in seconds; null uses steady_clock. Tests inject a
    /// manual clock to pin deadline behavior deterministically.
    std::function<double()> clock;
    /// Facade override (borrowed; must outlive the pipeline). Null uses an
    /// internal Optimizer with the built-in registry. The seam for tests
    /// that count or gate strategy invocations.
    const Optimizer* optimizer = nullptr;
    /// Cost model override (borrowed). Null uses an internal default model.
    const CostModel* model = nullptr;
  };

  /// PlanCache-style counters, aggregated under the pipeline lock.
  struct Stats {
    size_t submitted = 0;  ///< every Submit() call
    size_t served = 0;     ///< outcomes with status kOk
    size_t computed = 0;   ///< facade invocations (group leaders only)
    size_t coalesced = 0;  ///< submissions attached to an in-flight job
    size_t rejected = 0;   ///< queue-full rejections
    size_t shutdown = 0;   ///< submissions after Shutdown()
    size_t degraded = 0;   ///< outcomes served by the fallback strategy
    size_t errors = 0;     ///< outcomes with status kError
    size_t queue_depth_hwm = 0;  ///< admission-queue high-water mark
  };

  explicit ServePipeline(Options options);  // starts the worker pool
  ~ServePipeline();                         // Shutdown()

  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;

  /// Admits one request. `deadline_budget_seconds` is the caller's budget
  /// from this call (infinity = none); degradation triggers when the
  /// remaining budget at dequeue falls below the calibrated estimate.
  /// Never blocks on compute: the returned ticket is already resolved for
  /// rejections and malformed requests.
  ServeTicket Submit(const serde::ServeRequest& request,
                     double deadline_budget_seconds =
                         std::numeric_limits<double>::infinity());

  /// Stops admission, drains every admitted job, joins the workers.
  /// Idempotent; every ticket ever issued is resolved when this returns.
  void Shutdown();

  Stats stats() const;
  /// Jobs admitted but not yet picked up by a worker (diagnostic).
  size_t queue_depth() const;
  /// The calibrated compute estimate the next degrade decision would use.
  double EstimateSeconds() const;
  /// EWMA of observed fallback (degraded-serve) compute times; 0 until a
  /// degraded serve completes. Diagnostic counterpart to EstimateSeconds.
  double FallbackEstimateSeconds() const;

 private:
  /// One singleflight group: the leader's request plus every ticket the
  /// outcome fans out to (waiters[0] is the leader).
  struct Job {
    /// The RequestKey bytes: the singleflight identity.
    std::string key;
    uint64_t key_hash = 0;
    StrategyId strategy;
    serde::ServeRequest request;
    double deadline = std::numeric_limits<double>::infinity();
    std::vector<std::shared_ptr<ServeTicket::State>> waiters;
  };

  void WorkerLoop();
  void RunJob(Job& job);
  /// The OptimizeRequest a worker runs for `request`: its payload, this
  /// pipeline's model and plan cache, and no arena. Submit
  /// keys this same request, so the key it builds is the worker's.
  OptimizeRequest WorkerRequest(const serde::ServeRequest& request) const;
  static void Resolve(const std::shared_ptr<ServeTicket::State>& state,
                      ServeOutcome outcome, double now);

  Options options_;
  CostModel default_model_;
  Optimizer default_optimizer_;
  const CostModel* model_;
  const Optimizer* optimizer_;
  std::function<double()> clock_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  /// RequestKey bytes -> in-flight job (queued or computing), the
  /// singleflight table. Keyed by string_view into Job::key (jobs are
  /// heap-allocated and outlive their table entry).
  std::unordered_map<std::string_view, std::shared_ptr<Job>> inflight_;
  Stats stats_;
  double estimate_ewma_ = 0;
  bool has_estimate_ = false;
  /// Parallel EWMA over degraded (fallback) compute times. Degraded serves
  /// also decay estimate_ewma_ toward the observed fallback cost slowly,
  /// so the full-compute estimate cannot freeze under sustained overload
  /// (see RunJob's calibration comment).
  double fallback_ewma_ = 0;
  bool has_fallback_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lec

#endif  // LECOPT_SERVICE_SERVE_PIPELINE_H_
