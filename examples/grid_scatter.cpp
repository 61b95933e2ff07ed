// Data-parallel master/worker dispatch on a heterogeneous mesh: a master in
// one corner of a 4x4 grid streams distinct work units to worker nodes
// spread over the mesh (the paper's data-parallelism motivation, Sec. 1).
// The steady-state LP routes around congested rows; we compare against the
// shortest-path and congestion-aware fixed routings and show the periodic
// schedule that achieves the optimum.

#include <iostream>

#include "baselines/scatter_trees.h"
#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "graph/generators.h"
#include "io/report.h"
#include "io/table.h"
#include "platform/platform.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

int main() {
  constexpr std::size_t kRows = 4, kCols = 4;
  graph::Digraph g = graph::grid(kRows, kCols);

  // Row r's horizontal links slow down with r (mimicking a mesh whose lower
  // tiers are commodity links); vertical links are uniform.
  std::vector<Rational> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    std::size_t row_a = edge.src / kCols, row_b = edge.dst / kCols;
    if (row_a == row_b) {
      costs[e] = Rational(static_cast<std::int64_t>(row_a) + 1, 2);
    } else {
      costs[e] = Rational(1);
    }
  }
  std::vector<Rational> speeds(kRows * kCols, Rational(1));
  platform::ScatterInstance inst;
  inst.platform =
      platform::Platform(std::move(g), std::move(costs), std::move(speeds));
  inst.source = 0;
  inst.targets = {5, 7, 10, 12, 15};  // workers scattered over the mesh

  std::cout << "4x4 heterogeneous mesh, master at corner 0, "
            << inst.targets.size() << " workers\n\n";

  core::MultiFlow flow = core::solve_scatter(inst);
  auto sp = baselines::scatter_shortest_path(inst);
  auto greedy = baselines::scatter_greedy_congestion(inst);

  io::Table t({"strategy", "work units / time unit", "vs optimal"});
  t.add_row({"fixed shortest paths", io::pretty(sp.throughput),
             io::ratio(sp.throughput, flow.throughput)});
  t.add_row({"greedy congestion-aware paths", io::pretty(greedy.throughput),
             io::ratio(greedy.throughput, flow.throughput)});
  t.add_row({"steady-state LP (multi-route)", io::pretty(flow.throughput),
             "1.00x"});
  t.print(std::cout);

  std::cout << "\nBottleneck of the shortest-path routing: "
            << (sp.bottleneck.is_send ? "out-port" : "in-port") << " of node "
            << sp.bottleneck.node << " (busy " << io::pretty(
                   sp.bottleneck.busy)
            << " per operation)\n";

  core::PeriodicSchedule sched =
      core::build_flow_schedule(inst.platform, flow);
  std::cout << "\nLP schedule: period " << sched.period << ", "
            << sched.comms.size() << " timed transfers; one-port: "
            << (sim::check_oneport(sched, inst.platform, {}).empty() ? "PASS"
                                                                     : "FAIL")
            << "\n";
  auto result = sim::simulate_schedule(inst.platform, sched, 25);
  std::cout << "Simulated 25 periods: " << io::pretty(
                   result.completed_operations)
            << " complete dispatch rounds (bound "
            << io::pretty(flow.throughput * result.horizon) << ")\n";
  return 0;
}
