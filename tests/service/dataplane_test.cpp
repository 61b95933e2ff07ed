// Serving-loop regression tests: the three bugs the execution data plane
// exposed (per-follower dedup latency, nearest-rank percentiles, submit vs
// shutdown ordering) plus the closed loop itself — execute a served plan,
// observe drift, warm re-solve, recover efficiency against the NEW bound.
// This suite runs under TSan in CI; keep it data-race-clean by construction.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "platform/paper_instances.h"
#include "service/metrics.h"
#include "service/plan_service.h"
#include "testing/metric.h"
#include "testing/util.h"

namespace ssco::service {
namespace {

using testing::metric;

PlanRequest scatter_request(std::uint64_t seed, std::size_t n = 10,
                            std::size_t targets = 4) {
  PlanRequest request;
  request.instance = testing::random_scatter_instance(seed, n, targets);
  return request;
}

PlanRequest fig2_request() {
  PlanRequest request;
  request.instance = platform::fig2_toy();
  return request;
}

/// Deterministic event-backend execution with short periods.
PlanService::ExecuteOptions simulate_options() {
  PlanService::ExecuteOptions options;
  options.simulate = true;
  options.exec.warmup_periods = 6;
  options.exec.measure_periods = 16;
  options.exec.target_period_seconds = 4e-3;
  return options;
}

// ---- satellite: per-follower dedup latency ---------------------------------

TEST(DataPlaneTest, DeduplicatedFollowerReportsItsOwnLatency) {
  // One worker and a queue of fillers: the leader is stuck behind them
  // long enough for a follower submitted kDelay later to attach to the
  // SAME in-flight solve. Both futures are then fulfilled at the same
  // instant, so the follower's correct latency is the leader's minus
  // kDelay; the old code stamped the leader's submit time on every waiter
  // and reported them EQUAL. Individual solves are fast, so the filler
  // count escalates until the dedup window provably covered the delay.
  constexpr auto kDelay = std::chrono::milliseconds(10);
  const double delay_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(kDelay).count();
  for (std::size_t fillers = 100; fillers <= 6400; fillers *= 2) {
    PlanServiceOptions options;
    options.num_workers = 1;
    options.enable_warm_start = false;  // every filler solves cold
    PlanService service(options);

    std::vector<std::future<PlanResult>> pending;
    pending.reserve(fillers);
    for (std::size_t i = 0; i < fillers; ++i) {
      pending.push_back(service.submit(scatter_request(1000 + i, 10, 4)));
    }
    const PlanRequest request = scatter_request(33, 12, 5);
    auto leader = service.submit(request);
    std::this_thread::sleep_for(kDelay);
    auto follower = service.submit(request);

    const PlanResult leader_result = leader.get();
    const PlanResult follower_result = follower.get();
    for (auto& f : pending) (void)f.get();
    service.drain();

    if (metric(service.metrics_snapshot(), "service_deduplicated") != 1) {
      continue;  // queue drained before the follower arrived — more load
    }
    EXPECT_LT(follower_result.latency_ms, leader_result.latency_ms);
    // The gap is the submit delay (up to scheduling noise, never more
    // than the leader's total wait).
    EXPECT_GE(leader_result.latency_ms - follower_result.latency_ms,
              0.5 * delay_ms);
    return;
  }
  FAIL() << "could not keep the leader in flight across the submit delay";
}

// ---- satellite: nearest-rank percentiles -----------------------------------

TEST(DataPlaneTest, NearestRankIndexMatchesDefinition) {
  // 100 ascending samples 1..100: nearest-rank p50 is the 50th sample
  // (index 49). The old ceil(q * (n - 1)) reported index 50.
  EXPECT_EQ(nearest_rank_index(0.50, 100), 49u);
  EXPECT_EQ(nearest_rank_index(0.90, 100), 89u);
  EXPECT_EQ(nearest_rank_index(0.99, 100), 98u);
  EXPECT_EQ(nearest_rank_index(1.00, 100), 99u);

  // Two samples: the median is the SMALLER one (rank ceil(0.5*2)=1), the
  // tail percentiles the larger.
  EXPECT_EQ(nearest_rank_index(0.50, 2), 0u);
  EXPECT_EQ(nearest_rank_index(0.90, 2), 1u);
  EXPECT_EQ(nearest_rank_index(0.99, 2), 1u);

  // One sample: every percentile is that sample.
  EXPECT_EQ(nearest_rank_index(0.50, 1), 0u);
  EXPECT_EQ(nearest_rank_index(0.99, 1), 0u);

  // Never out of range, even for q == 1 with float noise.
  for (std::size_t n = 1; n <= 64; ++n) {
    EXPECT_LT(nearest_rank_index(1.0, n), n);
    EXPECT_LT(nearest_rank_index(0.999, n), n);
  }
}

TEST(DataPlaneTest, LatencyReservoirKeepsMostRecentSamplesDeterministically) {
  LatencyReservoir reservoir(4);
  for (int i = 1; i <= 6; ++i) reservoir.record(static_cast<double>(i));
  EXPECT_EQ(reservoir.size(), 4u);
  EXPECT_EQ(reservoir.capacity(), 4u);
  std::vector<double> samples = reservoir.samples();
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(samples, (std::vector<double>{3.0, 4.0, 5.0, 6.0}))
      << "wraparound must evict strictly oldest-first";
}

// ---- satellite: submit vs shutdown ordering --------------------------------

TEST(DataPlaneTest, SubmitAfterShutdownThrowsEvenOnTheCacheFastPath) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  const PlanRequest request = scatter_request(41, 8, 3);
  (void)service.submit(request).get();  // now cached: exact-hit fast path
  service.shutdown();

  // The regression: the exact-hit fast path used to run BEFORE the
  // stopping check, so this submit answered from cache instead of
  // honoring the documented throw contract.
  EXPECT_THROW((void)service.submit(request), std::runtime_error);
  EXPECT_THROW((void)service.submit(scatter_request(42, 8, 3)),
               std::runtime_error);
}

TEST(DataPlaneTest, SubmitVersusShutdownStressFulfillsEveryAcceptedFuture) {
  // Hammer submit() from several threads while another thread shuts the
  // service down: every submit must either throw std::runtime_error or
  // hand back a future that is eventually fulfilled — never a hang, never
  // an abandoned future. (TSan validates the synchronization.)
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  const PlanRequest cached = scatter_request(51, 8, 3);
  (void)service.submit(cached).get();

  constexpr std::size_t kThreads = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::future<PlanResult>>> accepted(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::uint64_t seed = 100 + t * 1000;
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          // Alternate the exact-hit fast path and fresh cold solves so
          // both intake paths race the shutdown.
          accepted[t].push_back(seed % 2 == 0
                                    ? service.submit(cached)
                                    : service.submit(scatter_request(
                                          ++seed, 6, 2)));
        } catch (const std::runtime_error&) {
          return;  // shutdown won the race — the contract
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.shutdown();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& c : clients) c.join();

  std::size_t fulfilled = 0;
  for (auto& futures : accepted) {
    for (auto& future : futures) {
      ASSERT_TRUE(future.valid());
      EXPECT_NO_THROW((void)future.get());
      ++fulfilled;
    }
  }
  EXPECT_GE(fulfilled, 1u);
}

// ---- the closed loop: plan -> execute -> observe -> re-solve ---------------

TEST(DataPlaneTest, ExecuteMeasuresAchievedAgainstCertifiedBound) {
  PlanService service;
  const PlanService::ExecuteResult run =
      service.execute(fig2_request(), simulate_options());

  EXPECT_TRUE(run.report.fault.ok()) << run.report.fault.to_string();
  EXPECT_TRUE(run.report.simulated);
  EXPECT_EQ(run.report.oneport_violations, 0u);
  EXPECT_EQ(run.report.delivery_errors, 0u);
  EXPECT_GT(run.report.certified_bytes_per_sec, 0.0);
  // The event backend runs the schedule at its modeled rates: achieved
  // throughput matches the LP-certified bound.
  EXPECT_GT(run.report.efficiency, 0.95);
  EXPECT_LT(run.report.efficiency, 1.05);
  EXPECT_TRUE(run.drift.empty());
  EXPECT_FALSE(run.resolved);

  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_executions"), 1u);
  EXPECT_EQ(metric(snap, "service_drift_resolves"), 0u);
  EXPECT_GT(metric(snap, "exec_last_efficiency"), 0.95);
  const std::string report = format_metrics(snap, service.shard_metrics());
  EXPECT_NE(report.find("drift re-solves"), std::string::npos);
  EXPECT_NE(report.find("last efficiency"), std::string::npos);
}

TEST(DataPlaneTest, DriftTriggersWarmResolveAndRecoversEfficiency) {
  PlanService service;
  const PlanRequest request = fig2_request();
  const auto& platform =
      std::get<platform::ScatterInstance>(request.instance).platform;

  // Inject drift: every link actually runs at HALF its modeled rate.
  PlanService::ExecuteOptions degraded = simulate_options();
  degraded.exec.link_rate_scale.assign(platform.num_edges(), 0.5);
  const PlanService::ExecuteResult slow = service.execute(request, degraded);

  EXPECT_TRUE(slow.report.fault.ok()) << slow.report.fault.to_string();
  EXPECT_GT(slow.report.efficiency, 0.3);
  EXPECT_LT(slow.report.efficiency, 0.7)
      << "halved links must show up as lost efficiency";
  ASSERT_TRUE(slow.resolved);
  ASSERT_FALSE(slow.drift.empty());
  ASSERT_NE(slow.updated.payload, nullptr);
  EXPECT_TRUE(slow.updated.payload->certified());
  // The corrected model certifies less than the stale one promised.
  EXPECT_LT(slow.updated.throughput(), slow.plan.throughput());

  // Re-execute the corrected plan on the SAME degraded hardware (scale 1.0
  // against the corrected costs ≡ the observed rates): efficiency against
  // the new certified bound recovers, and no further drift is observed.
  const PlanService::ExecuteResult recovered =
      service.execute(slow.drifted_request, simulate_options());
  EXPECT_TRUE(recovered.report.fault.ok()) << recovered.report.fault.to_string();
  EXPECT_GT(recovered.report.efficiency, 0.9)
      << "re-solve must recover efficiency against the corrected bound";
  EXPECT_TRUE(recovered.drift.empty());
  EXPECT_FALSE(recovered.resolved);

  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_executions"), 2u);
  EXPECT_EQ(metric(snap, "service_drift_resolves"), 1u);
  EXPECT_EQ(metric(snap, "exec_oneport_violations"), 0u);
  EXPECT_EQ(metric(snap, "exec_delivery_errors"), 0u);
  EXPECT_GT(metric(snap, "exec_last_efficiency"), 0.9);
}

TEST(DataPlaneTest, ExecuteServesReduceThroughTheSameLoop) {
  PlanService service;
  PlanRequest request;
  request.instance = testing::random_reduce_instance(17, 8, 4);
  const PlanService::ExecuteResult run =
      service.execute(request, simulate_options());

  EXPECT_TRUE(run.report.fault.ok()) << run.report.fault.to_string();
  EXPECT_EQ(run.report.oneport_violations, 0u);
  EXPECT_GT(run.report.efficiency, 0.9);
  EXPECT_LT(run.report.efficiency, 1.1);
  EXPECT_EQ(metric(service.metrics_snapshot(), "service_executions"), 1u);
}

}  // namespace
}  // namespace ssco::service
