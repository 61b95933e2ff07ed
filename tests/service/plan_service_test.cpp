// PlanService integration tests: cold→exact-hit serving, warm re-solve on
// metric drift (certificate-identical to a cold solve), multi-threaded
// single-flight deduplication (N identical concurrent requests → exactly
// one cold solve), per-operation coverage, failure propagation and metric
// bookkeeping. This suite is the TSan CI target — keep everything here
// data-race-clean by construction.

#include "service/plan_service.h"

#include <gtest/gtest.h>

#include <barrier>
#include <future>
#include <thread>
#include <vector>

#include "core/steady_state.h"
#include "platform/delta.h"
#include "service/metrics.h"
#include "testing/metric.h"
#include "testing/util.h"

namespace ssco::service {
namespace {

using num::Rational;
using testing::metric;

PlanRequest scatter_request(std::uint64_t seed, std::size_t n = 10,
                            std::size_t targets = 4) {
  PlanRequest request;
  request.instance = testing::random_scatter_instance(seed, n, targets);
  return request;
}

const platform::ScatterInstance& scatter_of(const PlanRequest& request) {
  return std::get<platform::ScatterInstance>(request.instance);
}

TEST(PlanServiceTest, ColdSolveThenExactHit) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  const PlanRequest request = scatter_request(3);
  PlanResult first = service.submit(request).get();
  EXPECT_EQ(first.source, PlanResult::Source::kColdSolve);
  ASSERT_NE(first.payload, nullptr);
  EXPECT_TRUE(first.payload->certified());

  const core::FlowPlan direct = core::optimize_scatter(scatter_of(request));
  EXPECT_EQ(first.throughput(), direct.flow.throughput);

  PlanResult second = service.submit(request).get();
  EXPECT_EQ(second.source, PlanResult::Source::kExactHit);
  // An exact hit hands out the SAME immutable plan, not a copy.
  EXPECT_EQ(second.payload, first.payload);

  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_cold_solves"), 1u);
  EXPECT_EQ(metric(snap, "service_exact_hits"), 1u);
  EXPECT_EQ(metric(snap, "service_submitted"), 2u);
}

TEST(PlanServiceTest, WarmHitOnDriftIsCertificateIdenticalToCold) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  const PlanRequest base = scatter_request(5);
  (void)service.submit(base).get();

  // Drift one link cost by 5% — same structure fingerprint, new metrics.
  PlanRequest drifted = base;
  platform::PlatformDelta delta;
  delta.cost_changes.push_back(
      {0, scatter_of(base).platform.edge_cost(0) * Rational(21, 20)});
  std::get<platform::ScatterInstance>(drifted.instance).platform =
      platform::apply_delta(scatter_of(base).platform, delta).platform;

  PlanResult warm = service.submit(drifted).get();
  EXPECT_EQ(warm.source, PlanResult::Source::kWarmHit);
  EXPECT_TRUE(warm.payload->certified());
  EXPECT_EQ(warm.fingerprint.structure, digest(base).fingerprint.structure);
  EXPECT_NE(warm.fingerprint.full, digest(base).fingerprint.full);

  // The warm plan must be indistinguishable from a cold solve of the same
  // instance: identical exact throughput and per-commodity flows.
  const core::FlowPlan cold = core::optimize_scatter(scatter_of(drifted));
  EXPECT_EQ(warm.throughput(), cold.flow.throughput);
  ASSERT_EQ(warm.payload->flow->flow.commodities.size(),
            cold.flow.commodities.size());
  EXPECT_EQ(metric(service.metrics_snapshot(), "service_warm_hits"), 1u);
}

TEST(PlanServiceTest, SingleFlightManyThreadsOneColdSolve) {
  PlanServiceOptions options;
  options.num_workers = 3;
  PlanService service(options);

  const PlanRequest request = scatter_request(7);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;

  std::vector<Rational> throughputs(kThreads * kPerThread);
  std::barrier gate(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        throughputs[t * kPerThread + i] =
            service.submit(request).get().throughput();
      }
    });
  }
  for (std::thread& c : clients) c.join();
  service.drain();

  for (const Rational& tp : throughputs) {
    EXPECT_EQ(tp, throughputs.front());
  }
  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_cold_solves"), 1u)
      << "single-flight must dedup";
  EXPECT_EQ(metric(snap, "service_warm_hits"), 0u);
  EXPECT_EQ(metric(snap, "service_submitted"), kThreads * kPerThread);
  // Every other request was deduplicated onto the in-flight solve or
  // answered from the cache.
  EXPECT_EQ(metric(snap, "service_exact_hits") +
                metric(snap, "service_deduplicated"),
            kThreads * kPerThread - 1);
  EXPECT_EQ(metric(snap, "service_failed"), 0u);
}

TEST(PlanServiceTest, ServesAllThreeOperations) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  PlanRequest gossip;
  {
    platform::GossipInstance inst;
    inst.platform = testing::random_platform(11, 8);
    inst.sources = {0, 1};
    inst.targets = {6, 7};
    gossip.instance = inst;
  }
  PlanRequest reduce;
  reduce.instance = testing::random_reduce_instance(13, 8, 3);

  auto gossip_future = service.submit(gossip);
  auto reduce_future = service.submit(reduce);
  const PlanResult g = gossip_future.get();
  const PlanResult r = reduce_future.get();

  EXPECT_TRUE(g.payload->certified());
  EXPECT_TRUE(r.payload->certified());
  ASSERT_NE(g.payload->flow, nullptr);
  ASSERT_NE(r.payload->reduce, nullptr);
  EXPECT_EQ(g.throughput(),
            core::optimize_gossip(
                std::get<platform::GossipInstance>(gossip.instance))
                .flow.throughput);
  EXPECT_EQ(r.throughput(),
            core::optimize_reduce(
                std::get<platform::ReduceInstance>(reduce.instance))
                .solution.throughput);
  // Same platform, different operations: distinct cache keys.
  EXPECT_EQ(metric(service.metrics_snapshot(), "service_cold_solves"), 2u);
}

TEST(PlanServiceTest, SolveFailurePropagatesToEveryWaiter) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  // Target 1 is unreachable from source 0 (only a 1 -> 0 link exists).
  platform::PlatformBuilder builder;
  const auto a = builder.add_node();
  const auto b = builder.add_node();
  builder.add_directed_link(b, a, Rational(1));
  platform::ScatterInstance inst;
  inst.platform = builder.build();
  inst.source = a;
  inst.targets = {b};
  PlanRequest request;
  request.instance = inst;

  auto f1 = service.submit(request);
  auto f2 = service.submit(request);
  EXPECT_THROW((void)f1.get(), std::invalid_argument);
  EXPECT_THROW((void)f2.get(), std::invalid_argument);
  service.drain();
  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_GE(metric(snap, "service_failed"), 1u);
  EXPECT_EQ(metric(snap, "service_cold_solves"), 0u);
}

TEST(PlanServiceTest, OutOfRangeRoleThrowsBeforeAnyCounterMoves) {
  PlanServiceOptions options;
  options.num_workers = 1;
  PlanService service(options);

  // A served request first, so the counters under test are not all zero.
  platform::ScatterInstance valid;
  valid.platform = testing::random_platform(3, 4);
  valid.source = 0;
  valid.targets = {2, 3};
  PlanRequest request;
  request.instance = valid;
  (void)service.submit(request).get();

  // The request digest runs before any solver validates the instance: a
  // role id past the platform's 4 nodes must be rejected there.
  constexpr graph::NodeId kBad = 40;
  std::vector<PlanRequest> malformed;
  auto add = [&](auto instance) {
    malformed.emplace_back().instance = instance;
  };
  {
    platform::ScatterInstance s = valid;
    s.source = kBad;
    add(s);
    s = valid;
    s.targets = {2, kBad};
    add(s);
  }
  {
    platform::GossipInstance g;
    g.platform = valid.platform;
    g.sources = {kBad};
    g.targets = {2, 3};
    add(g);
    g.sources = {0};
    g.targets = {kBad, 3};
    add(g);
  }
  {
    platform::ReduceInstance r;
    r.platform = valid.platform;
    r.participants = {1, kBad};
    r.target = 1;
    add(r);
    r.participants = {1, 2};
    r.target = kBad;
    add(r);
  }

  const obs::Snapshot before = service.metrics_snapshot();
  for (const PlanRequest& bad : malformed) {
    EXPECT_THROW((void)service.submit(bad), std::invalid_argument)
        << to_string(bad.operation());
  }
  const obs::Snapshot after = service.metrics_snapshot();
  EXPECT_EQ(metric(after, "service_submitted"),
            metric(before, "service_submitted"));
  EXPECT_EQ(metric(after, "cache_lookups"), metric(before, "cache_lookups"));
}

TEST(PlanServiceTest, MetricsBalanceAfterDrain) {
  PlanServiceOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  PlanService service(options);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    (void)service.submit(scatter_request(seed, 8, 3));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    (void)service.submit(scatter_request(seed, 8, 3));
  }
  service.drain();

  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_submitted"), 8u);
  EXPECT_EQ(metric(snap, "service_exact_hits") +
                metric(snap, "service_warm_hits") +
                metric(snap, "service_cold_solves") +
                metric(snap, "service_deduplicated") +
                metric(snap, "service_failed"),
            8u);
  EXPECT_EQ(metric(snap, "service_cold_solves"), 4u);
  EXPECT_EQ(metric(snap, "service_queue_depth"), 0u);
  EXPECT_GE(metric(snap, "service_latency_samples"), 8u);
  EXPECT_LE(metric(snap, "service_latency_p50_ms"),
            metric(snap, "service_latency_p99_ms"));
  const std::vector<CacheShardMetrics> shards = service.shard_metrics();
  EXPECT_EQ(shards.size(), 4u);
  std::size_t cached = 0;
  for (const CacheShardMetrics& s : shards) cached += s.size;
  EXPECT_EQ(cached, 4u);
  // The renderer must mention every headline counter.
  const std::string report = format_metrics(snap, shards);
  EXPECT_NE(report.find("hit rate"), std::string::npos);
  EXPECT_NE(report.find("cold solves"), std::string::npos);
}

TEST(PlanServiceTest, IntraSolveParallelismUnderConcurrentLoad) {
  // Stress inter-request concurrency COMBINED with intra-solve parallelism:
  // workers solve distinct cold requests while each solve shards its
  // certification and pricing loops across the shared pool under a
  // per-request budget. Served plans must equal the serial direct solves
  // exactly — parallel certification is bit-identical by contract — and
  // every future must be fulfilled.
  PlanServiceOptions options;
  options.num_workers = 3;
  options.solve_threads = 2;  // explicit budget > 1 even on 1-core runners
  options.enable_warm_start = false;  // every distinct request solves cold
  PlanService service(options);

  constexpr std::uint64_t kSeeds = 6;
  constexpr std::size_t kClients = 4;
  std::vector<std::future<PlanResult>> futures(kClients * kSeeds);
  std::barrier gate(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        futures[t * kSeeds + seed] =
            service.submit(scatter_request(seed + 1, 9, 3));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  service.drain();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::FlowPlan direct =
        core::optimize_scatter(scatter_of(scatter_request(seed + 1, 9, 3)));
    for (std::size_t t = 0; t < kClients; ++t) {
      PlanResult result = futures[t * kSeeds + seed].get();
      ASSERT_NE(result.payload, nullptr);
      EXPECT_TRUE(result.payload->certified());
      EXPECT_EQ(result.throughput(), direct.flow.throughput)
          << "seed " << seed + 1;
    }
  }
  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_submitted"), kClients * kSeeds);
  EXPECT_EQ(metric(snap, "service_cold_solves"), kSeeds);
  EXPECT_EQ(metric(snap, "service_failed"), 0u);
}

}  // namespace
}  // namespace ssco::service
