// Unified metrics surface of the plan service: metrics_snapshot() must be
// one coherent registry view — the cache invariant `hits + misses ==
// lookups` holds in EVERY snapshot, even taken mid-storm — the human table
// and both exposition formats project from that same snapshot, and a cold
// solve lands in the process-wide solver aggregates. Suite name keeps it
// inside the *PlanService* TSan CI target.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/metrics.h"
#include "service/plan_service.h"
#include "testing/metric.h"
#include "testing/util.h"

namespace ssco::service {
namespace {

using testing::metric;

PlanRequest scatter_request(std::uint64_t seed, std::size_t n = 8,
                            std::size_t targets = 3) {
  PlanRequest request;
  request.instance = testing::random_scatter_instance(seed, n, targets);
  return request;
}

/// The value cell of the `label` row of a rendered "metric | value" table.
std::string row_value(const std::string& table, const std::string& label) {
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(label + "  ", 0) == 0) {
      std::istringstream cells(line.substr(label.size()));
      std::string value;
      cells >> value;
      return value;
    }
  }
  ADD_FAILURE() << "no row '" << label << "' in:\n" << table;
  return {};
}

std::string as_count(double value) {
  return std::to_string(static_cast<std::uint64_t>(value));
}

TEST(PlanServiceObs, SnapshotCacheInvariantHoldsUnderConcurrentLoad) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::Snapshot snap = service.metrics_snapshot();
      // The whole point of Registry::Batch: no snapshot may ever observe a
      // lookup whose hit/miss classification has not landed yet.
      EXPECT_EQ(metric(snap, "cache_hits") + metric(snap, "cache_misses"),
                metric(snap, "cache_lookups"));
    }
  });

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 30;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        // Small seed pool: plenty of hits AND misses interleaving.
        (void)service.submit(scatter_request(1 + (t + i) % 4)).get();
      }
    });
  }
  for (std::thread& c : clients) c.join();
  service.drain();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_submitted"), kClients * kPerClient);
  EXPECT_EQ(metric(snap, "cache_hits") + metric(snap, "cache_misses"),
            metric(snap, "cache_lookups"));
  EXPECT_GT(metric(snap, "cache_hits"), 0.0);
  EXPECT_GT(metric(snap, "cache_misses"), 0.0);
}

TEST(PlanServiceObs, TableAndExpositionsProjectFromOneSnapshot) {
  PlanServiceOptions options;
  options.num_workers = 2;
  PlanService service(options);
  (void)service.submit(scatter_request(3)).get();
  (void)service.submit(scatter_request(3)).get();
  service.drain();

  const obs::Snapshot snap = service.metrics_snapshot();
  EXPECT_EQ(metric(snap, "service_submitted"), 2u);
  EXPECT_EQ(metric(snap, "service_cold_solves"), 1u);
  EXPECT_EQ(metric(snap, "service_exact_hits"), 1u);

  const std::string prom = snap.prometheus();
  EXPECT_NE(prom.find("# TYPE service_submitted counter"), std::string::npos);
  EXPECT_NE(prom.find("service_submitted 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE service_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("service_latency_ms_count"), std::string::npos);
  EXPECT_NE(prom.find("service_hit_rate"), std::string::npos);

  const std::string json = snap.json();
  EXPECT_NE(json.find("\"service_submitted\":2"), std::string::npos);
  EXPECT_NE(json.find("\"service_latency_ms_p50\":"), std::string::npos);

  // The human table renders from this same snapshot: its rows show the
  // values the snapshot holds under the names the expositions print.
  const std::string table = format_metrics(snap, service.shard_metrics());
  EXPECT_EQ(row_value(table, "submitted"),
            as_count(metric(snap, "service_submitted")));
  EXPECT_EQ(row_value(table, "cold solves"),
            as_count(metric(snap, "service_cold_solves")));
  EXPECT_EQ(row_value(table, "exact hits"),
            as_count(metric(snap, "service_exact_hits")));
}

TEST(PlanServiceObs, ColdSolveLandsInGlobalSolverAggregates) {
  const double before = obs::Registry::global().snapshot().value("solver_solves");
  PlanServiceOptions options;
  options.num_workers = 1;
  PlanService service(options);
  (void)service.submit(scatter_request(11)).get();
  service.drain();

  const obs::Snapshot global = obs::Registry::global().snapshot();
  EXPECT_GE(metric(global, "solver_solves"), before + 1.0);
  EXPECT_NE(global.find("solver_float_pivots"), nullptr);
  EXPECT_NE(global.find("solver_certify_ms"), nullptr);
}

}  // namespace
}  // namespace ssco::service
