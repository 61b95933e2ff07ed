// Chaos suite: deterministic fault injection on the data plane, the
// overload-safe serving path, and the closed loop between them.
//
// The contract under test (the robustness ISSUE's acceptance bar): under
// seeded faults every run ends in EXACTLY one of
//   * a clean measured window                      (report.fault.ok()),
//   * a degraded serve with a typed fault attached (degraded + FaultCode),
//   * a typed shed/deadline error at submit        (ServiceError),
// and never in an unreported error. Event-backend fault runs must be
// bit-identical across repeats, and the warm lane must stay responsive
// while the cold lane is flooded.
//
// This suite runs under TSan and ASan in CI (gtest_filter *Chaos*/*Fault*/
// *RateLimiter*); keep it data-race-clean and time-generous by design.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "core/steady_state.h"
#include "exec/faults.h"
#include "exec/rate_limiter.h"
#include "platform/delta.h"
#include "platform/paper_instances.h"
#include "service/metrics.h"
#include "service/plan_service.h"
#include "sim/event_exec.h"
#include "testing/metric.h"
#include "testing/util.h"

namespace ssco::service {
namespace {

using exec::ExecOptions;
using exec::ExecReport;
using exec::FaultCode;
using exec::FaultPlan;
using testing::metric;
using exec::sanitized_build;

PlanRequest scatter_request(std::uint64_t seed, std::size_t n = 10,
                            std::size_t targets = 4) {
  PlanRequest request;
  request.instance = testing::random_scatter_instance(seed, n, targets);
  return request;
}

/// Same structure, uniformly scaled costs: warm-compatible with `base` but
/// never an exact hit — the knob the warm-lane tests turn.
PlanRequest scaled_request(const PlanRequest& base, std::int64_t num,
                           std::int64_t den) {
  const platform::Platform& pf = base.platform();
  platform::PlatformDelta delta;
  for (graph::EdgeId e = 0; e < pf.num_edges(); ++e) {
    delta.cost_changes.push_back(
        {e, pf.edge_cost(e) * platform::Rational(num, den)});
  }
  PlanRequest request = base;
  auto applied = platform::apply_delta(pf, delta);
  std::visit([&](auto& instance) { instance.platform = applied.platform; },
             request.instance);
  return request;
}

/// Deterministic event-backend pacing shared by the fault tests.
ExecOptions quick_event_options() {
  ExecOptions opt;
  opt.warmup_periods = 6;
  opt.measure_periods = 16;
  opt.target_period_seconds = 4e-3;
  return opt;
}

PlanService::ExecuteOptions simulate_options() {
  PlanService::ExecuteOptions options;
  options.simulate = true;
  options.exec = quick_event_options();
  return options;
}

// ---- fault injection: the executor under a FaultPlan -----------------------

TEST(FaultInjectionTest, ChunkLossRetransmitsAndStillDelivers) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults.seed = 11;
  for (graph::EdgeId e = 0; e < inst.platform.num_edges(); ++e) {
    opt.faults.losses.push_back({e, 0.10});
  }
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_EQ(report.oneport_violations, 0u);
  EXPECT_EQ(report.delivery_errors, 0u);
  EXPECT_GT(report.chunks_lost, 0u);
  EXPECT_GT(report.retransmits, 0u);
  // Every retransmit re-admits a previously lost chunk, so it can never
  // outnumber the losses.
  EXPECT_LE(report.retransmits, report.chunks_lost);
  EXPECT_GE(report.faults_injected, report.chunks_lost);
  // Lost wire time is real: the effective rate must drop below certified.
  EXPECT_LT(report.efficiency, 1.0);
}

TEST(FaultInjectionTest, EventBackendFaultRunsAreBitIdentical) {
  const auto inst = testing::random_scatter_instance(7, 16, 8);
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults = exec::chaos_plan(3, inst.platform.num_edges(),
                                inst.platform.num_nodes(),
                                opt.target_period_seconds);
  const ExecReport a = sim::simulate_flow_execution(inst.platform, plan, opt);
  const ExecReport b = sim::simulate_flow_execution(inst.platform, plan, opt);
  EXPECT_EQ(a.fault.code, b.fault.code);
  EXPECT_EQ(a.chunks_lost, b.chunks_lost);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_DOUBLE_EQ(a.achieved_bytes_per_sec, b.achieved_bytes_per_sec);
  EXPECT_DOUBLE_EQ(a.efficiency, b.efficiency);
}

TEST(FaultInjectionTest, RetransmitLimitFailsTypedOnDeadEdge) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults.seed = 1;
  opt.faults.losses.push_back({0, 1.0});  // edge 0 delivers nothing, ever
  opt.faults.max_retransmits = 3;
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  ASSERT_EQ(report.fault.code, FaultCode::kRetransmitLimit)
      << report.fault.to_string();
  EXPECT_EQ(report.fault.edge, 0u);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.chunks_lost, 4u);  // initial try + 3 retransmits, all lost
}

TEST(FaultInjectionTest, DeadlineExceededFiresAtTheDeadline) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.deadline_seconds = 3 * opt.target_period_seconds;  // mid-warmup
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  ASSERT_EQ(report.fault.code, FaultCode::kDeadlineExceeded)
      << report.fault.to_string();
  EXPECT_FALSE(report.ok());
  EXPECT_LE(report.fault.at_seconds, opt.deadline_seconds + 1e-9);
}

TEST(FaultInjectionTest, BlackoutDelaysButNeverDeadlocks) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults.seed = 5;
  const double p = opt.target_period_seconds;
  for (graph::EdgeId e = 0; e < inst.platform.num_edges(); ++e) {
    opt.faults.blackouts.push_back({e, 2 * p, 4 * p});
  }
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  // Every send gates on the blackout's (finite) release time, so the run
  // completes its window instead of reporting kDeadlock.
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_EQ(report.oneport_violations, 0u);
  EXPECT_GT(report.faults_injected, 0u);
}

TEST(FaultInjectionTest, RateCollapseShowsUpAsDriftableEfficiencyLoss) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults.seed = 2;
  for (graph::EdgeId e = 0; e < inst.platform.num_edges(); ++e) {
    opt.faults.rate_collapses.push_back({e, 0.0, 0.5});
  }
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_LT(report.efficiency, 0.7);
  EXPECT_GT(report.efficiency, 0.3);
  // The collapse is indistinguishable from real hardware drift — exactly
  // what the closed loop's infer_cost_drift must pick up.
  const auto delta = exec::infer_cost_drift(inst.platform, report, 0.15);
  EXPECT_FALSE(delta.cost_changes.empty());
}

TEST(FaultInjectionTest, ChaosPlanSeverityTiersAreDeterministic) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const FaultPlan a = exec::chaos_plan(seed, 12, 6, 1e-3);
    const FaultPlan b = exec::chaos_plan(seed, 12, 6, 1e-3);
    EXPECT_EQ(a.losses.size(), b.losses.size());
    EXPECT_FALSE(a.empty());
    const std::uint64_t severity = seed % 4;
    EXPECT_EQ(!a.rate_collapses.empty(), severity >= 1) << "seed " << seed;
    EXPECT_EQ(!a.slowdowns.empty(), severity >= 2) << "seed " << seed;
    EXPECT_EQ(!a.blackouts.empty(), severity >= 3) << "seed " << seed;
  }
}

// ---- rate limiting under faults (satellite: limiter edge cases) ------------

TEST(RateLimiterTest, TokenBucketBurstSmallerThanOneChunkStillProgresses) {
  // A chunk larger than the whole burst can never accumulate. It must be
  // admitted once the bucket is full and borrow the deficit, so admission
  // degrades to strict pacing instead of wedging.
  exec::TokenBucket bucket(/*rate=*/100.0, /*burst=*/25.0);  // bytes/s, bytes
  // Starts full: a 100-byte chunk goes at once and leaves 25 - 100 = -75.
  EXPECT_EQ(bucket.ready_time(0.0, 100.0), 0.0);
  bucket.consume(0.0, 100.0);
  // The next one waits until the deficit is repaid and the bucket is full:
  // 100 bytes at 100 bytes/s.
  EXPECT_DOUBLE_EQ(bucket.ready_time(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(bucket.ready_time(0.5, 100.0), 1.0);
  // A chunk within the burst waits only for its own bytes: (75 + 10) / 100.
  EXPECT_DOUBLE_EQ(bucket.ready_time(0.0, 10.0), 0.85);
  // Strict pacing from then on: one chunk per second.
  bucket.consume(1.0, 100.0);
  EXPECT_DOUBLE_EQ(bucket.ready_time(1.0, 100.0), 2.0);
}

TEST(RateLimiterTest, GcraPacingHoldsAfterLongAdmissionStall) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults.seed = 9;
  const double p = opt.target_period_seconds;
  // A long dark interval starves every out-port; when the light comes back
  // the GCRA's theoretical-arrival-time must pace the backlog out instead
  // of releasing it as one one-port-violating burst.
  for (graph::EdgeId e = 0; e < inst.platform.num_edges(); ++e) {
    opt.faults.blackouts.push_back({e, 1 * p, 6 * p});
  }
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_EQ(report.oneport_violations, 0u);
  EXPECT_EQ(report.delivery_errors, 0u);
}

TEST(RateLimiterTest, RetransmissionsRespectTheOnePortMonitor) {
  const auto inst = testing::random_scatter_instance(13, 12, 6);
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_event_options();
  opt.faults.seed = 21;
  for (graph::EdgeId e = 0; e < inst.platform.num_edges(); ++e) {
    opt.faults.losses.push_back({e, 0.25});
  }
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_GT(report.chunks_lost, 0u);
  EXPECT_GT(report.retransmits, 0u);
  // The whole point: retransmitted chunks re-enter through the same port
  // admission as first sends, so the one-port invariant survives any loss
  // pattern with zero violations.
  EXPECT_EQ(report.oneport_violations, 0u);
  EXPECT_EQ(report.delivery_errors, 0u);
}

// ---- the serving path under overload ---------------------------------------

TEST(OverloadTest, AdmissionShedsTypedAndCountsEveryDecision) {
  PlanServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  PlanService service(options);

  std::vector<std::future<PlanResult>> accepted;
  std::size_t shed = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    try {
      accepted.push_back(service.submit(scatter_request(500 + i, 12, 5)));
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ServiceErrorCode::kOverloaded);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u) << "12 rapid submits vs depth cap 2 must shed";
  for (auto& f : accepted) EXPECT_NE(f.get().payload, nullptr);
  service.drain();

  const obs::Snapshot m = service.metrics_snapshot();
  EXPECT_EQ(metric(m, "service_submitted"), 12u);
  EXPECT_EQ(metric(m, "service_shed"), shed);
  EXPECT_EQ(metric(m, "service_accepted") + metric(m, "service_shed"),
            metric(m, "service_submitted"));
  EXPECT_EQ(metric(m, "service_accepted"), accepted.size());
}

TEST(OverloadTest, EtaAdmissionGateShedsWhenBacklogExceedsBudget) {
  PlanServiceOptions options;
  options.num_workers = 1;
  options.enable_warm_start = false;
  options.admission_budget_ms = 0.01;  // nothing real fits this budget
  PlanService service(options);

  // First solve trains the cold-lane ETA; it was admitted with no history.
  (void)service.submit(scatter_request(700, 12, 5)).get();
  service.drain();

  // With a trained ETA, a burst must trip the budget gate on some submit.
  std::size_t shed = 0;
  std::vector<std::future<PlanResult>> accepted;
  for (std::uint64_t i = 0; i < 8; ++i) {
    try {
      accepted.push_back(service.submit(scatter_request(710 + i, 12, 5)));
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ServiceErrorCode::kOverloaded);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);
  for (auto& f : accepted) (void)f.get();
  const obs::Snapshot m = service.metrics_snapshot();
  EXPECT_EQ(metric(m, "service_accepted") + metric(m, "service_shed"),
            metric(m, "service_submitted"));
}

TEST(OverloadTest, DeadlineMissServesStaleDegradedAndResolvesInBackground) {
  PlanServiceOptions options;
  options.num_workers = 1;
  options.serve_stale = true;
  PlanService service(options);

  // Prime: a certified plan for structure A sits in the cache.
  const PlanRequest base = scatter_request(42, 10, 4);
  const PlanResult primed = service.submit(base).get();
  ASSERT_NE(primed.payload, nullptr);
  service.drain();

  // Occupy the single worker with cold work, then submit a warm-compatible
  // variant of A whose deadline has effectively already passed: by the time
  // the worker reaches it, serve-stale must answer with the primed plan.
  std::vector<std::future<PlanResult>> fillers;
  for (std::uint64_t i = 0; i < 6; ++i) {
    fillers.push_back(service.submit(scatter_request(900 + i, 12, 5)));
  }
  // The worker prefers the warm lane: were it still idle when the variant
  // arrives, it could pop the variant inside its deadline and solve it warm.
  // A cold queue of at most 5 means the worker holds a filler.
  while (metric(service.metrics_snapshot(), "service_cold_queue_depth") > 5) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  PlanRequest variant = scaled_request(base, 21, 20);  // +5% costs
  // 1 ns has passed by any pop. A 10 us deadline had not when the worker
  // finished its filler within 10 us of this submit.
  variant.deadline_ms = 1e-6;
  const PlanResult stale = service.submit(variant).get();

  EXPECT_TRUE(stale.degraded);
  EXPECT_EQ(stale.source, PlanResult::Source::kStale);
  ASSERT_NE(stale.payload, nullptr);
  EXPECT_EQ(stale.payload, primed.payload) << "must serve the cached plan";

  for (auto& f : fillers) (void)f.get();
  service.drain();  // the background re-solve finishes before drain returns

  const obs::Snapshot m = service.metrics_snapshot();
  EXPECT_GE(metric(m, "service_deadline_misses"), 1u);
  EXPECT_GE(metric(m, "service_degraded_served"), 1u);
  EXPECT_EQ(metric(m, "service_accepted") + metric(m, "service_shed"),
            metric(m, "service_submitted"));
  // The deadline-missed job kept solving with no waiters: a repeat of the
  // variant is now answered inline from the refreshed cache.
  PlanRequest again = scaled_request(base, 21, 20);
  const PlanResult fresh = service.submit(again).get();
  EXPECT_FALSE(fresh.degraded);
  EXPECT_EQ(fresh.source, PlanResult::Source::kExactHit);
}

TEST(OverloadTest, DeadlineMissWithoutStaleFailsTyped) {
  PlanServiceOptions options;
  options.num_workers = 1;
  options.serve_stale = false;
  PlanService service(options);

  std::vector<std::future<PlanResult>> fillers;
  for (std::uint64_t i = 0; i < 6; ++i) {
    fillers.push_back(service.submit(scatter_request(950 + i, 12, 5)));
  }
  PlanRequest doomed = scatter_request(43, 10, 4);
  doomed.deadline_ms = 0.01;
  auto future = service.submit(doomed);
  try {
    (void)future.get();
    FAIL() << "deadline with serve_stale=false must fail typed";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kDeadlineExceeded);
  }
  for (auto& f : fillers) (void)f.get();
  EXPECT_GE(metric(service.metrics_snapshot(), "service_deadline_misses"),
            1u);
}

TEST(OverloadTest, CacheTtlExpiresExactHitsAndCountsIt) {
  PlanServiceOptions options;
  options.num_workers = 1;
  options.cache_ttl_ms = 1.0;
  PlanService service(options);

  const PlanRequest request = scatter_request(77, 10, 4);
  (void)service.submit(request).get();
  service.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  const PlanResult second = service.submit(request).get();
  service.drain();
  EXPECT_NE(second.source, PlanResult::Source::kExactHit)
      << "a TTL-expired entry must not serve exact hits";
  std::size_t expirations = 0;
  for (const CacheShardMetrics& s : service.shard_metrics()) {
    expirations += s.expirations;
  }
  EXPECT_GE(expirations, 1u);
  EXPECT_EQ(metric(service.metrics_snapshot(), "service_exact_hits"), 0u);
}

// ---- satellite: submit vs drain vs shutdown (TSan-covered) -----------------

TEST(OverloadTest, SubmitDrainShutdownStressLeavesNoFutureBehind) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 24;
  PlanServiceOptions options;
  options.num_workers = 2;
  auto service = std::make_unique<PlanService>(options);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> fulfilled{0}, typed_rejects{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters + 1);
  // Drainer: hammers drain() concurrently with intake. The contract: drain
  // returns only when every accepted request is fulfilled, and it never
  // deadlocks against submit or shutdown.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      service->drain();
      std::this_thread::yield();
    }
  });
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        try {
          // Small pool of distinct requests: exercises dedup, exact hits
          // and both lanes at once.
          auto f = service->submit(scatter_request(100 + (t * 7 + i) % 9));
          if (f.get().payload != nullptr) {
            fulfilled.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const ServiceError&) {
          typed_rejects.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Tear the service down while submitters may still be running: late
  // submits must get the typed kShutdown error, never a hang or a crash.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service->shutdown();
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(fulfilled.load() + typed_rejects.load(),
            kSubmitters * kPerThread)
      << "every submit ended in a fulfilled future or a typed error";
  const obs::Snapshot m = service->metrics_snapshot();
  EXPECT_EQ(metric(m, "service_accepted") + metric(m, "service_shed"),
            metric(m, "service_submitted"));
  EXPECT_EQ(metric(m, "service_queue_depth"), 0u);
}

// ---- the chaos soak: plan -> execute under faults -> classify --------------

TEST(ChaosSoakTest, SeededFaultsClassifyEveryRunOnBothBackends) {
  PlanService service;
  const PlanRequest request = scatter_request(7, 16, 8);
  const platform::Platform& pf = request.platform();

  std::size_t clean = 0, degraded = 0, shed = 0, unreported = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool simulate : {true, false}) {
      PlanService::ExecuteOptions options = simulate_options();
      options.simulate = simulate;
      options.exec.faults = exec::chaos_plan(
          seed, pf.num_edges(), pf.num_nodes(),
          options.exec.target_period_seconds);
      if (seed % 3 == 0) {
        // Some scenarios also race a hard run deadline, to drive the
        // degraded-serve classification deterministically on the event
        // backend (8 periods < the 22-period window).
        options.exec.deadline_seconds =
            8 * options.exec.target_period_seconds;
      }
      try {
        const PlanService::ExecuteResult run =
            service.execute(request, options);
        if (run.report.fault.ok()) {
          ++clean;
          EXPECT_FALSE(run.degraded);
          EXPECT_EQ(run.report.oneport_violations, 0u);
          EXPECT_EQ(run.report.delivery_errors, 0u);
        } else if (run.degraded) {
          ++degraded;
          EXPECT_NE(run.report.fault.code, FaultCode::kNone);
          EXPECT_FALSE(run.report.fault.to_string().empty());
        } else {
          ++unreported;  // a fault neither surfaced nor flagged: forbidden
        }
      } catch (const ServiceError&) {
        ++shed;  // typed shed is a legitimate terminal outcome
      }
    }
  }
  EXPECT_EQ(unreported, 0u);
  EXPECT_EQ(clean + degraded + shed, 12u);
  EXPECT_GT(clean, 0u);
  EXPECT_GT(degraded, 0u) << "the deadline scenarios must degrade";

  const obs::Snapshot m = service.metrics_snapshot();
  EXPECT_GT(metric(m, "exec_faults_injected"), 0u);
  EXPECT_EQ(metric(m, "exec_oneport_violations"), 0u);
  EXPECT_EQ(metric(m, "exec_delivery_errors"), 0u);
  EXPECT_GE(metric(m, "service_degraded_served"), degraded);
}

TEST(ChaosSoakTest, WarmLaneStaysResponsiveUnderColdFlood) {
  if (sanitized_build()) {
    GTEST_SKIP() << "wall-clock latency assertions are meaningless at "
                    "sanitizer slowdowns";
  }
  PlanServiceOptions options;
  options.num_workers = 2;  // cold cap = 1: one worker reserved for warm
  PlanService service(options);

  const PlanRequest base = scatter_request(11, 10, 4);
  (void)service.submit(base).get();  // prime the warm basis
  service.drain();

  auto warm_p99 = [&](std::int64_t first_num) {
    std::vector<double> ms;
    for (std::int64_t i = 0; i < 16; ++i) {
      // Each variant is new (never exact-hit, never dedup) but rides the
      // warm lane off the primed basis.
      const PlanResult r =
          service.submit(scaled_request(base, first_num + i, 1000)).get();
      ms.push_back(r.latency_ms);
    }
    std::sort(ms.begin(), ms.end());
    return ms[obs::nearest_rank_index(0.99, ms.size())];
  };

  const double unloaded = warm_p99(1001);

  // Flood the cold lane far past the worker count, then measure again
  // WHILE the flood drains. The reserved warm worker keeps the warm lane's
  // p99 within the acceptance bound instead of queue-tail latency.
  std::vector<std::future<PlanResult>> flood;
  for (std::uint64_t i = 0; i < 12; ++i) {
    flood.push_back(service.submit(scatter_request(3000 + i, 14, 6)));
  }
  const double loaded = warm_p99(2001);
  for (auto& f : flood) (void)f.get();
  service.drain();

  // Acceptance: within 2x of unloaded. The absolute floor absorbs
  // scheduler noise on small/oversubscribed hosts, where sub-ms p99s make
  // a pure ratio meaningless.
  EXPECT_LE(loaded, std::max(2.0 * unloaded, 25.0))
      << "unloaded p99 " << unloaded << " ms, loaded p99 " << loaded << " ms";
}

}  // namespace
}  // namespace ssco::service
