#include "service/serve_pipeline.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "dist/simd.h"

namespace lec {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// EWMA weight for the calibrated compute estimate. Heavy enough that a
/// regime change (bigger queries start arriving) re-calibrates within a
/// handful of serves, light enough that one outlier does not whipsaw the
/// degrade threshold.
constexpr double kEstimateAlpha = 0.2;
/// Per-degraded-serve decay of the full-compute estimate toward the
/// observed fallback cost. Deliberately much smaller than kEstimateAlpha:
/// degraded serves are only indirect evidence about full-compute cost, so
/// recovery from overload is gradual (~14 degraded serves to halve the
/// gap) while one real compute snaps the estimate back at full weight.
constexpr double kDegradedDecayAlpha = 0.05;

}  // namespace

std::string_view ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kShutdown:
      return "shutdown";
    case ServeStatus::kError:
      return "error";
  }
  return "unknown";
}

const ServeOutcome& ServeTicket::Wait() const {
  if (state_ == nullptr) {
    throw std::logic_error("Wait() on an empty ServeTicket");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->outcome;
}

bool ServeTicket::Done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

ServePipeline::ServePipeline(Options options) : options_(std::move(options)) {
  options_.workers = std::max(options_.workers, 1);
  options_.queue_capacity = std::max<size_t>(options_.queue_capacity, 1);
  model_ = options_.model != nullptr ? options_.model : &default_model_;
  optimizer_ =
      options_.optimizer != nullptr ? options_.optimizer : &default_optimizer_;
  clock_ = options_.clock ? options_.clock : SteadySeconds;
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServePipeline::~ServePipeline() { Shutdown(); }

void ServePipeline::Resolve(const std::shared_ptr<ServeTicket::State>& state,
                            ServeOutcome outcome, double now) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    outcome.serve_seconds = std::max(now - state->submit_time, 0.0);
    state->outcome = std::move(outcome);
    state->done = true;
  }
  state->cv.notify_all();
}

ServeTicket ServePipeline::Submit(const serde::ServeRequest& request,
                                  double deadline_budget_seconds) {
  double now = clock_();
  auto state = std::make_shared<ServeTicket::State>();
  state->submit_time = now;
  ServeTicket ticket{state};

  // Key the request OUTSIDE the pipeline lock: RequestKey::ComputeInto
  // serializes the whole request, and holding mu_ across that would stall
  // every worker's completion path behind admission. The key is built
  // under the SIMD tier a worker will pin, since the tier is part of it,
  // and from the request a worker will run, so the worker hands it to the
  // facade's request memo instead of building it again.
  std::optional<StrategyId> id = ParseStrategy(request.strategy);
  std::string key;
  uint64_t key_hash = 0;
  if (id) {
    try {
      simd::ScopedLevel simd_scope(SimdLevelFor(request.options.simd_mode));
      key_hash = RequestKey::ComputeInto(*id, WorkerRequest(request), &key);
    } catch (const std::exception& e) {
      id.reset();
      ServeOutcome bad;
      bad.status = ServeStatus::kError;
      bad.error = e.what();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
      ++stats_.errors;
      Resolve(state, std::move(bad), clock_());
      return ticket;
    }
  }
  if (!id) {
    ServeOutcome bad;
    bad.status = ServeStatus::kError;
    bad.error = "unknown strategy \"" + request.strategy + "\"";
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    ++stats_.errors;
    Resolve(state, std::move(bad), clock_());
    return ticket;
  }

  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      ++stats_.shutdown;
      ServeOutcome out;
      out.status = ServeStatus::kShutdown;
      out.error = "pipeline is shutting down";
      Resolve(state, std::move(out), clock_());
      return ticket;
    }
    if (options_.coalesce) {
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        // Singleflight attach: share the in-flight job's one optimization.
        // No queue slot is consumed, so an attach never sees backpressure.
        it->second->waiters.push_back(std::move(state));
        ++stats_.coalesced;
        return ticket;
      }
    }
    if (queue_.size() >= options_.queue_capacity) {
      ++stats_.rejected;
      ServeOutcome out;
      out.status = ServeStatus::kRejected;
      out.error = "admission queue full";
      Resolve(state, std::move(out), clock_());
      return ticket;
    }
    auto job = std::make_shared<Job>();
    job->key = std::move(key);
    job->key_hash = key_hash;
    job->strategy = *id;
    job->request = request;  // the pipeline owns the payload while in flight
    job->deadline = now + deadline_budget_seconds;
    job->waiters.push_back(std::move(state));
    if (options_.coalesce) {
      inflight_.emplace(std::string_view(job->key), job);
    }
    queue_.push_back(std::move(job));
    stats_.queue_depth_hwm = std::max(stats_.queue_depth_hwm, queue_.size());
    enqueued = true;
  }
  if (enqueued) work_cv_.notify_one();
  return ticket;
}

void ServePipeline::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      // The job stays in the singleflight table while computing, so
      // duplicates arriving mid-compute still attach. It leaves the table
      // in RunJob's completion section, before waiters resolve.
    }
    RunJob(*job);
  }
}

OptimizeRequest ServePipeline::WorkerRequest(
    const serde::ServeRequest& request) const {
  OptimizeRequest req;
  req.query = &request.workload.query;
  req.catalog = &request.workload.catalog;
  req.model = model_;
  req.memory = &request.memory;
  req.options = request.options;
  // Per-process pointers are the pipeline's to inject: the shared plan
  // cache is internally synchronized, and each worker runs on its own
  // per-thread scratch arena.
  req.options.plan_cache = options_.plan_cache;
  req.options.dist_arena = nullptr;
  req.lsc_estimate = request.lsc_estimate;
  req.top_c = request.top_c;
  if (request.chain) req.chain = &*request.chain;
  req.seed = request.seed;
  req.randomized_restarts = request.randomized_restarts;
  req.randomized_patience = request.randomized_patience;
  req.sample_predicate = request.sample_predicate;
  return req;
}

void ServePipeline::RunJob(Job& job) {
  // Degrade decision at dequeue: if the remaining budget cannot cover the
  // calibrated estimate of a full optimization, serve the cheaper fallback
  // instead of starting work that would blow the deadline.
  double start = clock_();
  double remaining = job.deadline - start;
  bool degraded = false;
  if (std::isfinite(job.deadline)) {
    double estimate = EstimateSeconds();
    degraded = remaining <= 0 || remaining < estimate;
  }
  StrategyId id = degraded ? options_.fallback_strategy : job.strategy;

  ServeOutcome outcome;
  bool computed_ok = false;
  OptimizeRequest req = WorkerRequest(job.request);
  try {
    // The admission key is the full-fidelity request's; a degraded serve
    // runs another strategy and keys itself.
    outcome.result = degraded
                         ? optimizer_->Optimize(id, req)
                         : optimizer_->Optimize(id, req, job.key, job.key_hash);
    outcome.status = ServeStatus::kOk;
    outcome.degraded = degraded;
    computed_ok = true;
  } catch (const std::exception& e) {
    outcome.status = ServeStatus::kError;
    outcome.error = e.what();
  }
  double compute_seconds = clock_() - start;

  std::vector<std::shared_ptr<ServeTicket::State>> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.computed;
    // Calibration: fold every full-fidelity serve into the estimate at
    // full weight. Degraded serves measure the fallback, not a full
    // optimization, so they feed a PARALLEL fallback estimate — and decay
    // the full estimate toward the observed fallback cost at a much
    // slower rate. Without that decay the estimate freezes at its last
    // pre-overload value under sustained overload (every serve degrades,
    // nothing ever recalibrates), so the pipeline can never discover that
    // conditions eased; with it, the estimate drifts down until a full
    // compute is attempted again, which immediately recalibrates it. A
    // single degraded serve only nudges the estimate (no whipsaw from one
    // cheap fallback run), and the decay floor is the fallback cost
    // itself — a full optimization is never cheaper than the fallback.
    if (computed_ok && !degraded) {
      estimate_ewma_ = has_estimate_ ? (1 - kEstimateAlpha) * estimate_ewma_ +
                                           kEstimateAlpha * compute_seconds
                                     : compute_seconds;
      has_estimate_ = true;
    } else if (computed_ok && degraded) {
      fallback_ewma_ = has_fallback_
                           ? (1 - kEstimateAlpha) * fallback_ewma_ +
                                 kEstimateAlpha * compute_seconds
                           : compute_seconds;
      has_fallback_ = true;
      if (has_estimate_ && estimate_ewma_ > compute_seconds) {
        estimate_ewma_ = (1 - kDegradedDecayAlpha) * estimate_ewma_ +
                         kDegradedDecayAlpha * compute_seconds;
      }
    }
    // Leave the singleflight table BEFORE resolving waiters: a duplicate
    // submitted after this point starts a fresh job (and, with a plan
    // cache attached, serves as a hit).
    if (options_.coalesce) {
      auto it = inflight_.find(job.key);
      if (it != inflight_.end() && it->second.get() == &job) {
        inflight_.erase(it);
      }
    }
    waiters = std::move(job.waiters);
    if (outcome.status == ServeStatus::kOk) {
      stats_.served += waiters.size();
      if (degraded) stats_.degraded += waiters.size();
    } else {
      stats_.errors += waiters.size();
    }
  }

  double done = clock_();
  for (size_t i = 0; i < waiters.size(); ++i) {
    ServeOutcome copy = outcome;  // plan tree shared; nodes are immutable
    copy.coalesced = i > 0;
    Resolve(waiters[i], std::move(copy), done);
  }
}

void ServePipeline::Shutdown() {
  // Claim the worker handles under the lock so concurrent Shutdown calls
  // (say, an explicit one racing the destructor) join disjoint sets.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

ServePipeline::Stats ServePipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ServePipeline::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

double ServePipeline::EstimateSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(estimate_ewma_, options_.min_degrade_headroom_seconds);
}

double ServePipeline::FallbackEstimateSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_ewma_;
}

}  // namespace lec
