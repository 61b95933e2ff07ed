// Sensor fusion over a wide-area hierarchy — the paper's Sec. 4.7 scenario
// as an application: LAN-attached sensor hosts continuously produce
// observations; every time step the platform must fold them (in sensor rank
// order — the fusion operator is associative but NOT commutative, e.g.
// ordered Kalman-style updates) into one estimate at a gateway host.
//
// The example generates a Tiers WAN/MAN/LAN topology, maximizes the fused-
// estimate rate with the steady-state reduce LP, compares with classic
// single-tree schemes, extracts the reduction-tree family, builds the
// periodic schedule, and validates it in the simulator.

#include <iostream>

#include "baselines/reduce_trees.h"
#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/tree_extract.h"
#include "graph/rng.h"
#include "graph/tiers.h"
#include "io/report.h"
#include "io/table.h"
#include "platform/platform.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

int main() {
  // --- Generate the platform: 3 WAN routers, MAN pairs, 2-host LANs. ---
  graph::TiersParams params;
  params.wan_nodes = 3;
  params.mans_per_wan = 1;
  params.man_nodes = 1;
  params.lans_per_man = 1;
  params.hosts_per_lan = 2;
  graph::Rng rng(2026);
  graph::TiersTopology topo = graph::tiers(params, rng);

  std::vector<Rational> costs(topo.graph.num_edges());
  for (graph::EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
    graph::EdgeId reverse =
        topo.graph.find_edge(topo.graph.edge(e).dst, topo.graph.edge(e).src);
    if (reverse != graph::kInvalidId && reverse < e) {
      costs[e] = costs[reverse];
      continue;
    }
    switch (topo.edge_level[e]) {
      case graph::TiersLinkLevel::kWan:
        costs[e] = Rational(1, static_cast<std::int64_t>(rng.uniform(2, 12)));
        break;
      case graph::TiersLinkLevel::kWanMan:
      case graph::TiersLinkLevel::kMan:
        costs[e] =
            Rational(1, static_cast<std::int64_t>(rng.uniform(100, 300)));
        break;
      case graph::TiersLinkLevel::kManLan:
        costs[e] = Rational(1, 1000);
        break;
    }
  }
  std::vector<Rational> speeds(topo.graph.num_nodes(), Rational(1));
  for (graph::NodeId host : topo.hosts) {
    speeds[host] = Rational(static_cast<std::int64_t>(rng.uniform(15, 95)));
  }

  platform::ReduceInstance inst;
  inst.platform = platform::Platform(std::move(topo.graph), std::move(costs),
                                     std::move(speeds));
  inst.participants = topo.hosts;   // sensor rank = creation order
  inst.target = topo.hosts.front();  // gateway host
  inst.message_size = Rational(10);  // observation/partial-estimate size
  inst.task_work = Rational(10);     // fold cost: 10/s_i on host i

  std::cout << "Sensor network: " << inst.platform.num_nodes() << " nodes, "
            << inst.participants.size() << " sensors, gateway = "
            << inst.platform.node_name(inst.target) << "\n\n";

  // --- Optimize. ---
  core::ReduceSolution sol = core::solve_reduce(inst);
  std::cout << "Max fused-estimate rate (steady state): "
            << io::pretty(sol.throughput) << " fusions per time unit\n";

  io::Table t({"scheme", "rate", "vs optimal"});
  auto row = [&](const char* name, const core::ReductionTree& tree) {
    Rational tp = baselines::single_tree_throughput(inst, tree);
    t.add_row({name, io::pretty(tp), io::ratio(tp, sol.throughput)});
  };
  row("flat tree (all -> gateway)", baselines::flat_reduce_tree(inst));
  row("chain (rank order)", baselines::chain_reduce_tree(inst));
  row("binomial", baselines::binomial_reduce_tree(inst));
  t.add_row({"steady-state LP (this library)", io::pretty(sol.throughput),
             "1.00x"});
  t.print(std::cout);

  // --- Realize and validate the schedule. ---
  core::TreeDecomposition trees = core::extract_trees(inst, sol);
  std::cout << "\nSchedule uses " << trees.trees.size()
            << " concurrent reduction tree(s):\n";
  for (const auto& tree : trees.trees) {
    std::cout << "  weight " << tree.weight << ", " << tree.tasks.size()
              << " tasks\n";
  }
  core::PeriodicSchedule sched = core::build_reduce_schedule(inst, trees);
  std::cout << "Period " << sched.period << "; one-port check: "
            << (sim::check_oneport(sched, inst.platform,
                                   {inst.message_size, inst.task_work})
                        .empty()
                    ? "PASS"
                    : "FAIL")
            << "\n";

  auto result = sim::simulate_schedule(inst.platform, sched, 40);
  std::cout << "Simulated 40 periods: " << io::pretty(
                   result.completed_operations)
            << " fusions (fluid bound "
            << io::pretty(sol.throughput * result.horizon) << "), steady "
            << (result.steady_state_reached ? "yes" : "no") << "\n";
  return 0;
}
