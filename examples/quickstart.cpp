// Quickstart: optimize a pipelined scatter on a small heterogeneous
// platform, build the periodic schedule, and verify it in the simulator.
//
//   1. describe the platform (nodes, links with per-unit transfer costs);
//   2. pick roles (source + targets) -> ScatterInstance;
//   3. solve_scatter -> exact optimal throughput + per-edge flows;
//   4. build_flow_schedule -> one-port-safe periodic schedule;
//   5. simulate to watch the pipeline fill and reach the optimum.

#include <iostream>

#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "platform/paper_instances.h"
#include "platform/platform.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

int main() {
  // A master node feeding two workers through two relays; the left route is
  // fast, the right route slow — classic heterogeneous-grid shape.
  platform::PlatformBuilder builder;
  auto master = builder.add_node("master");
  auto relay_fast = builder.add_node("relay-fast");
  auto relay_slow = builder.add_node("relay-slow");
  auto worker_a = builder.add_node("worker-a");
  auto worker_b = builder.add_node("worker-b");
  builder.add_link(master, relay_fast, Rational(1, 2));
  builder.add_link(master, relay_slow, Rational(1));
  builder.add_link(relay_fast, worker_a, Rational(1, 2));
  builder.add_link(relay_fast, worker_b, Rational(1));
  builder.add_link(relay_slow, worker_b, Rational(1, 2));

  platform::ScatterInstance instance;
  instance.platform = builder.build();
  instance.source = master;
  instance.targets = {worker_a, worker_b};

  core::MultiFlow flow = core::solve_scatter(instance);
  std::cout << "Optimal steady-state throughput: " << flow.throughput
            << " scatter operations per time unit\n";
  std::cout << "  (method: " << flow.lp_method
            << ", exact optimality certified: "
            << (flow.certified ? "yes" : "no") << ")\n\n";

  std::cout << "Traffic per time unit (messages on each link):\n";
  const auto& g = instance.platform.graph();
  for (std::size_t k = 0; k < flow.commodities.size(); ++k) {
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const Rational& f = flow.commodities[k].edge_flow[e];
      if (f.is_zero()) continue;
      std::cout << "  " << instance.platform.node_name(g.edge(e).src) << " -> "
                << instance.platform.node_name(g.edge(e).dst) << " : " << f
                << " msg/unit for "
                << instance.platform.node_name(instance.targets[k]) << "\n";
    }
  }

  core::PeriodicSchedule schedule =
      core::build_flow_schedule(instance.platform, flow);
  std::cout << "\nPeriodic schedule (period " << schedule.period << "):\n"
            << schedule.to_string();
  std::cout << "one-port check: "
            << (sim::check_oneport(schedule, instance.platform, {}).empty()
                    ? "PASS"
                    : "FAIL")
            << "\n";

  auto sim = sim::simulate_schedule(instance.platform, schedule, 20);
  std::cout << "\nAfter 20 periods (" << sim.horizon << " time units): "
            << sim.completed_operations << " complete scatters, steady state "
            << (sim.steady_state_reached ? "reached" : "not reached") << "\n";
  return 0;
}
