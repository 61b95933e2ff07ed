// Plan service walkthrough: a small fleet of clients planning collective
// operations over one live platform.
//
// Three client threads share one PlanService:
//   * a scatter client re-requesting the current platform every tick,
//   * a gossip client doing the same,
//   * an operator thread drifting one link cost per tick (the platform the
//     clients see drifts under them).
//
// Watch the sources in the output: the first request of a tick solves cold
// or warm (incremental re-solve from the previous tick's basis); every
// repeat within a tick is an exact cache hit, which runs no solve. The
// metrics table at the end renders the service's own registry snapshot
// (src/service/metrics.h).
//
// Build & run:
//   cmake -B build -S . && cmake --build build --target example_plan_service_demo
//   ./build/example_plan_service_demo

#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/rng.h"
#include "io/report.h"
#include "platform/delta.h"
#include "service/metrics.h"
#include "service/plan_service.h"

using namespace ssco;

namespace {

std::mutex print_mu;

void say(const std::string& line) {
  std::lock_guard<std::mutex> lock(print_mu);
  std::cout << line << "\n";
}

platform::Platform make_platform(std::size_t n) {
  graph::Rng rng(2024);
  graph::Digraph topo = graph::random_connected(n, 0.3, rng);
  std::vector<num::Rational> costs;
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    costs.emplace_back(static_cast<std::int64_t>(rng.uniform(1, 4)),
                       static_cast<std::int64_t>(rng.uniform(1, 3)));
  }
  std::vector<num::Rational> speeds;
  for (std::size_t i = 0; i < n; ++i) {
    speeds.emplace_back(static_cast<std::int64_t>(rng.uniform(1, 8)));
  }
  return platform::Platform(std::move(topo), std::move(costs),
                            std::move(speeds));
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 14;
  constexpr std::size_t kTicks = 6;
  constexpr std::size_t kRepeatsPerTick = 5;

  // The drifting platform sequence, precomputed so every client sees the
  // same history (a real deployment would publish snapshots).
  std::vector<platform::Platform> timeline;
  timeline.push_back(make_platform(kNodes));
  graph::Rng drift_rng(7);
  for (std::size_t t = 1; t < kTicks; ++t) {
    const platform::Platform& prev = timeline.back();
    platform::PlatformDelta delta;
    const auto e = static_cast<graph::EdgeId>(
        drift_rng.uniform(0, prev.num_edges() - 1));
    delta.cost_changes.push_back(
        {e, prev.edge_cost(e) * num::Rational(21, 20)});
    timeline.push_back(platform::apply_delta(prev, delta).platform);
  }

  service::PlanServiceOptions options;
  options.num_workers = 2;
  service::PlanService svc(options);

  auto client = [&](const std::string& name, auto make_request) {
    for (std::size_t t = 0; t < kTicks; ++t) {
      for (std::size_t r = 0; r < kRepeatsPerTick; ++r) {
        service::PlanResult result = svc.submit(make_request(t)).get();
        if (r == 0) {
          say("[" + name + "] tick " + std::to_string(t) + ": TP = " +
              io::pretty(result.throughput()) + "  (" +
              service::to_string(result.source) + ", " +
              io::fixed(result.latency_ms, 2) + " ms)");
        }
      }
    }
  };

  std::thread scatter_client(client, "scatter", [&](std::size_t t) {
    platform::ScatterInstance inst;
    inst.platform = timeline[t];
    inst.source = 0;
    inst.targets = {kNodes - 1, kNodes - 2, kNodes - 3};
    service::PlanRequest request;
    request.instance = std::move(inst);
    return request;
  });
  std::thread gossip_client(client, "gossip", [&](std::size_t t) {
    platform::GossipInstance inst;
    inst.platform = timeline[t];
    inst.sources = {0, 1};
    inst.targets = {kNodes - 1, kNodes - 2};
    service::PlanRequest request;
    request.instance = std::move(inst);
    return request;
  });
  scatter_client.join();
  gossip_client.join();
  svc.drain();

  std::cout << "\n"
            << service::format_metrics(svc.metrics_snapshot(),
                                       svc.shard_metrics());
  return 0;
}
