// Reproduces paper Sec. 4.7 / Figs. 9-12: the Tiers-generated platform
// experiment. 14 nodes (6 routers + 8 participating hosts), message size 10,
// task time 10/s_i, target = node 6 (logical index 4).
//
// The paper reports TP = 2/9 and extracts two reduction trees of weight 1/9
// each. Fig. 9 does not print an unambiguous edge-cost table, so our
// reconstruction (DESIGN.md) is approximate: we obtain a *different exact
// rational* TP on the same structure. Everything qualitative carries over:
// the LP strictly beats every classic single-tree scheme, and a small tree
// family realizes the optimum.

#include <iostream>

#include "baselines/reduce_trees.h"
#include "core/integralize.h"
#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/tree_extract.h"
#include "io/dot_export.h"
#include "io/report.h"
#include "io/table.h"
#include "platform/paper_instances.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

int main() {
  std::cout << io::banner("Figs. 9-12 — Tiers platform Series of Reduces");

  auto inst = platform::fig9_tiers();
  std::cout << "Platform: " << inst.platform.num_nodes() << " nodes, "
            << inst.platform.num_edges() / 2 << " physical links, "
            << inst.participants.size()
            << " participants, target node 6 (logical index 4)\n";
  {
    io::Table t({"logical idx", "node", "speed", "task time (10/s)"});
    for (std::size_t i = 0; i < inst.participants.size(); ++i) {
      graph::NodeId node = inst.participants[i];
      t.add_row({std::to_string(i), inst.platform.node_name(node),
                 inst.platform.node_speed(node).to_string(),
                 inst.platform.compute_time(node, inst.task_work).to_string()});
    }
    t.print(std::cout);
  }

  core::ReduceSolution sol = core::solve_reduce(inst);
  std::cout << "\nOptimal steady-state throughput TP = "
            << io::pretty(sol.throughput)
            << "   [paper, on its exact instance: 2/9 (~0.2222)]\n";
  std::cout << "LP path: " << sol.lp_method << ", validates: "
            << (sol.validate(inst).empty() ? "yes" : "NO") << "\n";

  std::cout << "\nBaseline single-tree schemes on the same platform:\n";
  {
    io::Table t({"scheme", "throughput", "LP advantage"});
    auto row = [&](const char* name, const core::ReductionTree& tree) {
      Rational tp = baselines::single_tree_throughput(inst, tree);
      t.add_row({name, io::pretty(tp), io::ratio(sol.throughput, tp)});
    };
    row("flat (all -> target)", baselines::flat_reduce_tree(inst));
    row("chain (rank order)", baselines::chain_reduce_tree(inst));
    row("binomial (recursive)", baselines::binomial_reduce_tree(inst));
    t.print(std::cout);
  }

  core::TreeDecomposition d = core::extract_trees(inst, sol);
  std::cout << "\nExtracted " << d.trees.size()
            << " reduction trees (paper: 2), total weight "
            << io::pretty(d.total_weight) << ":\n\n";
  for (std::size_t i = 0; i < d.trees.size(); ++i) {
    std::cout << "--- tree " << (i + 1) << " (throughput " << d.trees[i].weight
              << ", " << d.trees[i].tasks.size() << " tasks) ---\n";
    std::cout << d.trees[i].to_string(inst);
    std::cout << "valid: " << (d.trees[i].validate(inst).empty() ? "yes" : "NO")
              << "\n\n";
  }
  std::cout << "Reconstitution check: "
            << (d.verify_reconstitution(inst, sol).empty() ? "exact" : "FAIL")
            << "\n";

  core::PeriodicSchedule sched = core::build_reduce_schedule(inst, d);
  std::cout << "\nSchedule: period " << sched.period << " ("
            << sched.comms.size() << " transfers, " << sched.comps.size()
            << " merge blocks); one-port: "
            << (sim::check_oneport(sched, inst.platform,
                                   {inst.message_size, inst.task_work})
                        .empty()
                    ? "PASS"
                    : "FAIL")
            << "\n";
  auto result = sim::simulate_schedule(inst.platform, sched, 50);
  Rational last_rate =
      (result.completed_by_period.back() -
       result.completed_by_period[result.completed_by_period.size() - 2]) /
      sched.period;
  std::cout << "Simulated 50 periods: steady per-period rate "
            << io::pretty(last_rate) << " (= TP: "
            << (last_rate == sol.throughput ? "yes" : "NO") << ")\n";

  std::cout << "\nGraphviz renderings (pipe into `dot -Tpng`):\n";
  std::cout << "--- platform (Fig. 9 analogue; participants shaded) ---\n"
            << io::platform_to_dot(inst.platform, inst.participants);
  std::cout << "--- first reduction tree (Fig. 11 analogue) ---\n"
            << io::reduction_tree_to_dot(inst, d.trees.front());
  return 0;
}
