// Personalized all-to-all between two clusters joined by two WAN routes
// (paper Sec. 3.5). Every node of cluster A continuously exchanges distinct
// data with every node of cluster B — the communication pattern of a
// distributed join or a multi-site MPI_Alltoall. Under the one-port model
// the switch's OUT-PORT serializes all inter-cluster traffic, so what
// matters is how long each message occupies it: the relayed route hands
// messages off in half the time of the direct link. The LP discovers this
// and pipelines through the relay; the fixed shortest-path routing (which
// tie-breaks to the direct link) halves the achievable rate.

#include <iostream>

#include "baselines/gossip_baseline.h"
#include "core/gossip_lp.h"
#include "core/scatter_schedule.h"
#include "io/report.h"
#include "io/table.h"
#include "platform/platform.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

int main() {
  platform::PlatformBuilder b;
  // Cluster A: three hosts on a fast switch (modeled as a router node).
  auto switch_a = b.add_node("switchA");
  auto a0 = b.add_node("a0");
  auto a1 = b.add_node("a1");
  auto a2 = b.add_node("a2");
  for (auto h : {a0, a1, a2}) b.add_link(switch_a, h, Rational(1, 10));
  // Cluster B likewise.
  auto switch_b = b.add_node("switchB");
  auto b0 = b.add_node("b0");
  auto b1 = b.add_node("b1");
  auto b2 = b.add_node("b2");
  for (auto h : {b0, b1, b2}) b.add_link(switch_b, h, Rational(1, 10));
  // Twin WAN links with different speeds.
  b.add_link(switch_a, switch_b, Rational(1));
  auto wan_router = b.add_node("wan-relay");
  b.add_link(switch_a, wan_router, Rational(1, 2));
  b.add_link(wan_router, switch_b, Rational(1, 2));

  platform::GossipInstance inst;
  inst.platform = b.build();
  inst.sources = {a0, a1, a2};
  inst.targets = {b0, b1, b2};

  std::cout << "Two 3-host clusters, direct WAN link (cost 1) plus relayed "
               "WAN path (cost 1/2 per hop)\n\n";

  core::MultiFlow flow = core::solve_gossip(inst);
  auto fixed = baselines::gossip_shortest_path(inst);

  io::Table t({"strategy", "all-to-all rounds / time unit", "vs optimal"});
  t.add_row({"fixed shortest paths", io::pretty(fixed.throughput),
             io::ratio(fixed.throughput, flow.throughput)});
  t.add_row({"steady-state LP", io::pretty(flow.throughput), "1.00x"});
  t.print(std::cout);

  // How does the LP split the inter-cluster traffic?
  const auto& g = inst.platform.graph();
  Rational via_direct(0), via_relay(0);
  for (const auto& c : flow.commodities) {
    via_direct += c.edge_flow[g.find_edge(switch_a, switch_b)];
    via_relay += c.edge_flow[g.find_edge(switch_a, wan_router)];
  }
  std::cout << "\nInter-cluster traffic split per time unit: "
            << io::pretty(via_direct) << " via the direct link, "
            << io::pretty(via_relay) << " via the relay\n";

  core::PeriodicSchedule sched =
      core::build_flow_schedule(inst.platform, flow);
  std::cout << "\nSchedule period " << sched.period << "; one-port: "
            << (sim::check_oneport(sched, inst.platform, {}).empty() ? "PASS"
                                                                     : "FAIL")
            << "\n";
  auto result = sim::simulate_schedule(inst.platform, sched, 30);
  std::cout << "Simulated 30 periods: " << io::pretty(
                   result.completed_operations)
            << " complete all-to-all rounds (bound "
            << io::pretty(flow.throughput * result.horizon) << ")\n";
  return 0;
}
