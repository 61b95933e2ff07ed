#pragma once
// Concurrent steady-state plan service.
//
// Turns the solver library into a servable system: many clients submit
// planning requests (operation × platform × options) concurrently and get
// back futures of shared, immutable plans. The serving pipeline:
//
//   submit(request)
//     ├─ exact cache hit (same fingerprint + verified identical request)
//     │    → ready future, no solve                           [exact hit]
//     ├─ identical request already in flight
//     │    → attach to it (single-flight dedup), one solve serves all
//     └─ otherwise → enqueue on the batching request queue
//          worker pool (fixed size) pops:
//            ├─ re-check cache (a racing worker may have filled it)
//            ├─ warm candidate (same structure fingerprint, verified same
//            │   shape) → incremental re-solve from its basis via the
//            │   dual-simplex warm path (lp/warm_start.h)      [warm hit]
//            └─ cold solve                                     [cold solve]
//          then insert into the cache and fulfill every waiter.
//
// Warm and cold solves run through the identical ExactSolver certificate
// paths, so every served plan is exact and certified regardless of how it
// was produced — a warm hit is indistinguishable from a cold solve except
// in latency.
//
// Overload safety: the request queue is TWO lanes. Requests that can be
// served by an incremental warm re-solve (a same-structure basis is
// cached) ride the warm lane; everything else is a cold solve. Workers
// always prefer the warm lane, and at most (workers - 1) of them may run
// cold solves concurrently, so a flood of heavy cold work can never starve
// cheap warm re-solves — one worker is effectively reserved for the warm
// lane. Admission control sheds with a typed ServiceError(kOverloaded)
// when the queue is past max_queue_depth or the lane's backlog times its
// observed solve-time ETA exceeds admission_budget_ms. A request whose
// deadline fires while it is still queued is served STALE (the last
// certified same-structure plan, flagged degraded=true, solve continues in
// the background) when serve_stale allows, else fails with a typed
// ServiceError(kDeadlineExceeded).
//
// Thread-safety contract: every public method may be called from any
// thread. Shutdown (destructor) stops intake, finishes every queued job,
// and joins the workers — futures obtained from submit() are always
// fulfilled (with a plan or an exception), never abandoned.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/exec_report.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "platform/delta.h"
#include "service/errors.h"
#include "service/metrics.h"
#include "service/plan_cache.h"
#include "service/plan_types.h"

namespace ssco::service {

struct PlanServiceOptions {
  /// Solver worker threads; 0 = max(2, hardware_concurrency()).
  std::size_t num_workers = 0;
  /// Intra-solve thread budget stamped onto every request's
  /// ExactSolverOptions::threads (lp/parallel.h). 0 = auto:
  /// hardware_threads() / num_workers, at least 1 — so all workers solving
  /// cold at once exactly saturate the shared pool and inter-request
  /// parallelism can never be oversubscribed by intra-solve parallelism. A
  /// request asking for FEWER threads than the budget keeps its smaller
  /// ask; asking for more is clamped. Parallel solves stay bit-identical
  /// to serial ones, so the budget never changes a served plan.
  std::size_t solve_threads = 0;
  std::size_t num_shards = 8;
  /// Cached plans per shard.
  std::size_t shard_capacity = 128;
  /// Serve near hits by warm-starting from a same-structure cached basis;
  /// off = every miss solves cold (the bench's baseline mode).
  bool enable_warm_start = true;

  // ---- overload safety ----
  /// Hard queue-depth cap across both lanes; a submit that would exceed it
  /// is shed with ServiceError(kOverloaded). 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// ETA-based admission budget: shed when (lane backlog + 1) x the lane's
  /// observed per-solve ETA (EWMA, ms) exceeds this. 0 = off.
  double admission_budget_ms = 0.0;
  /// Default per-request deadline (PlanRequest::deadline_ms overrides);
  /// fires only while the request is still queued. 0 = no deadline.
  double default_deadline_ms = 0.0;
  /// Serve-stale degraded mode: a deadline-missed request gets the last
  /// certified same-structure plan flagged degraded=true (and the solve
  /// continues in the background) instead of an exception. Only applies
  /// when a stale candidate exists.
  bool serve_stale = true;
  /// Exact-cache TTL in ms (see PlanCache); 0 = entries never expire.
  double cache_ttl_ms = 0.0;
};

struct ExecuteOptions {
  /// Executor pacing/verification knobs, including drift injection
  /// (exec::ExecOptions::link_rate_scale).
  exec::ExecOptions exec;
  /// Run on the discrete-event backend (sim/event_exec.h) instead of
  /// worker threads: deterministic, no wall-clock time.
  bool simulate = false;
  /// Re-solve when an edge's effective rate drifts relatively more than
  /// this from its modeled rate.
  double drift_threshold = 0.15;
  bool resolve_on_drift = true;
};

struct ExecuteResult {
  PlanResult plan;          ///< the plan that was executed
  exec::ExecReport report;  ///< achieved vs certified measurement
  /// Observed per-edge drift as a platform correction; empty when every
  /// link performed as modeled (within threshold).
  platform::PlatformDelta drift;
  bool resolved = false;  ///< drift exceeded threshold and was re-solved
  /// The run ended with a typed execution fault (report.fault): the served
  /// plan is still the best certified one, but the measurement is not a
  /// clean steady-state window. The cached plan was kept (faults are a
  /// platform problem, not a plan problem) and a background re-solve was
  /// scheduled so the next request re-certifies.
  bool degraded = false;
  /// Set when resolved: the corrected request (drifted costs applied) and
  /// the re-solved plan it produced — warm-started from the executed
  /// plan's basis whenever the cache allows.
  PlanRequest drifted_request;
  PlanResult updated;
};

class PlanService {
 public:
  explicit PlanService(PlanServiceOptions options = {});
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Submits one planning request. Returns immediately; the future is
  /// fulfilled inline on an exact cache hit, else by a worker. Throws a
  /// typed ServiceError (a std::runtime_error): kShutdown during/after
  /// shutdown, kOverloaded when admission control sheds the request; and
  /// std::invalid_argument, before any counter moves, for a role id outside
  /// the platform. A request whose solve throws (e.g. unreachable target)
  /// forwards the exception through the future to every deduplicated
  /// waiter.
  [[nodiscard]] std::future<PlanResult> submit(PlanRequest request);

  /// Blocks until the service is idle: both lanes empty, no worker mid-
  /// solve, and no in-flight entry left (so every future handed out before
  /// the call is fulfilled). Submissions racing drain() either land before
  /// the idle predicate holds — extending the wait — or are rejected by
  /// shutdown; either way drain() never returns while an accepted request
  /// is unfulfilled. Concurrent with submit()/shutdown() by design: the
  /// predicate is evaluated under the same queue lock intake uses.
  void drain();

  /// Stops intake (subsequent submit() calls throw), finishes every job
  /// already accepted, and joins the workers. Idempotent; the destructor
  /// calls it. Every future handed out before shutdown() is fulfilled.
  void shutdown();

  // Nested aliases so call sites can keep writing
  // PlanService::ExecuteOptions. (The structs live at namespace scope
  // because their default member initializers must be complete before the
  // `= {}` default argument below is parsed.)
  using ExecuteOptions = service::ExecuteOptions;
  using ExecuteResult = service::ExecuteResult;

  /// Closes the serving loop: plan -> execute -> observe -> re-solve.
  /// Submits `request` (cache/warm/cold as usual), runs the resulting plan
  /// through the execution data plane, feeds the observed per-edge rates
  /// back as a platform::PlatformDelta, and — when drift exceeds the
  /// threshold — invalidates the executed plan and re-submits the corrected
  /// request (cold, unless another same-structure plan is cached). Blocks
  /// until the run (and any re-solve) finishes; executor counters land in
  /// metrics_snapshot().
  [[nodiscard]] ExecuteResult execute(const PlanRequest& request,
                                      const ExecuteOptions& options = {});

  /// The service's only metrics record: every service counter, the
  /// cache-lookup invariant counters, latency percentiles, data-plane
  /// gauges and the shared thread pool's utilization, captured in ONE
  /// atomically consistent snapshot (obs::Registry::Batch guarantees e.g.
  /// cache_hits + cache_misses == cache_lookups in every snapshot).
  /// Expose with .prometheus() or .json(), or render with format_metrics.
  [[nodiscard]] obs::Snapshot metrics_snapshot() const;

  /// Per-shard cache stats (size, hits, misses, evictions, ...), each read
  /// under its shard lock; format_metrics renders them as the shard table.
  [[nodiscard]] std::vector<CacheShardMetrics> shard_metrics() const;

 private:
  /// One client blocked on an in-flight solve. Each waiter keeps its OWN
  /// submit stamp: a deduplicated follower that attached late must report
  /// (and record) only its own wait, not the leader's.
  struct Waiter {
    std::promise<PlanResult> promise;
    std::chrono::steady_clock::time_point submitted;
  };
  struct Inflight {
    CacheKey key;
    platform::Fingerprint fingerprint;
    PlanRequest request;
    std::vector<Waiter> waiters;
    /// Lane classification at admission (no same-structure basis cached).
    bool cold = false;
    /// Resolved deadline (request override or service default); 0 = none.
    double deadline_ms = 0.0;
  };

  void worker_loop();
  void process(const std::shared_ptr<Inflight>& job, bool cold_lane);
  /// Serve-stale fallback for a deadline-missed job: fulfills every waiter
  /// with the last certified same-structure plan flagged degraded, or
  /// fails them typed when none exists. Returns true when the (now
  /// waiter-less) solve should still run in the background.
  bool degrade_or_fail(const std::shared_ptr<Inflight>& job);
  /// Solves `request` (warm from `warm_from` when given); returns the
  /// cache-ready payload.
  std::shared_ptr<PlanPayload> solve(
      const PlanRequest& request,
      const std::shared_ptr<const PlanPayload>& warm_from) const;
  void record_latency(double ms);

  PlanServiceOptions options_;
  PlanCache cache_;
  /// Resolved per-request intra-solve budget (see
  /// PlanServiceOptions::solve_threads); fixed at construction.
  std::size_t solve_budget_ = 1;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  /// Two-lane queue: warm_queue_ holds requests a cached basis can serve
  /// incrementally, cold_queue_ everything else. Workers prefer warm; at
  /// most max_cold_ of them run cold jobs concurrently (see header doc).
  std::deque<std::shared_ptr<Inflight>> warm_queue_;
  std::deque<std::shared_ptr<Inflight>> cold_queue_;
  std::unordered_map<CacheKey, std::shared_ptr<Inflight>, CacheKeyHash>
      inflight_;
  bool stopping_ = false;
  std::size_t active_jobs_ = 0;
  std::size_t active_cold_ = 0;
  std::size_t max_cold_ = 1;
  /// Per-lane EWMA of observed solve time, for the admission ETA
  /// (queue_mu_). Milliseconds; 0 until the first solve of that class.
  double warm_eta_ms_ = 0.0;
  double cold_eta_ms_ = 0.0;

  // Unified metrics registry (see metrics_snapshot()). Counters that must
  // stay cross-consistent (the request-outcome family, the cache-lookup
  // family) are bumped inside one Registry::Batch at each event site, so a
  // concurrent snapshot can never observe half an event. The references
  // below are resolved once at construction — bumping is lock-free.
  // `mutable` so const readers can refresh point-in-time gauges.
  mutable obs::Registry registry_;
  obs::Counter& submitted_;
  obs::Counter& accepted_;
  obs::Counter& shed_;
  obs::Counter& deadline_misses_;
  obs::Counter& degraded_served_;
  obs::Counter& deduplicated_;
  obs::Counter& exact_hits_;
  obs::Counter& warm_hits_;
  obs::Counter& cold_solves_;
  obs::Counter& failed_;
  obs::Counter& cache_lookups_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& cache_invalidations_;
  obs::Counter& executions_;
  obs::Counter& drift_resolves_;
  obs::Counter& exec_oneport_violations_;
  obs::Counter& exec_delivery_errors_;
  obs::Counter& exec_faults_injected_;
  obs::Counter& exec_retransmits_;
  obs::Gauge& last_efficiency_;
  obs::Gauge& last_achieved_bytes_per_sec_;
  obs::Gauge& last_certified_bytes_per_sec_;
  obs::Histogram& latency_hist_;

  // Queue stats (queue_mu_, alongside the queue itself).
  std::size_t max_queue_depth_ = 0;

  // Exact-percentile reservoir of the most recent kLatencySamples
  // requests; the histogram above serves the registry's bucketed view, the
  // reservoir the service_latency_p* gauges.
  static constexpr std::size_t kLatencySamples = 1 << 14;
  mutable std::mutex latency_mu_;
  LatencyReservoir latency_{kLatencySamples};

  std::vector<std::thread> workers_;
};

}  // namespace ssco::service
