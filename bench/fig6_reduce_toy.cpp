// Reproduces paper Fig. 6 (Sec. 4.3): the three-processor Series-of-Reduces
// example. Full mesh, unit link costs, node 0 (the target) twice as fast.
//
// Expected (paper): TP = 1 reduction per time-unit; the integral solution
// has period 3 with values A(...) as in Fig. 6(b); the pipelined schedule of
// Fig. 6(e) sustains 1 op/time-unit. The LP optimum is degenerate (several
// vertices achieve TP = 1) so our A may differ from 6(b) while matching the
// throughput and all conservation laws.

#include <iostream>

#include "core/integralize.h"
#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/tree_extract.h"
#include "io/report.h"
#include "io/table.h"
#include "platform/paper_instances.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

int main() {
  std::cout << io::banner("Fig. 6 — three-processor Series of Reduces");

  auto inst = platform::fig6_triangle();
  core::ReduceSolution sol = core::solve_reduce(inst);

  std::cout << "Optimal steady-state throughput TP = "
            << io::pretty(sol.throughput) << "   [paper: 1]\n";
  std::cout << "LP path: " << sol.lp_method << ", validates: "
            << (sol.validate(inst).empty() ? "yes" : "NO") << "\n";

  const num::BigInt period_int = core::integral_period(sol);
  const Rational period{Rational(period_int)};
  std::cout << "\nIntegral solution A for period " << period
            << " (paper presents period 3):\n";
  const core::IntervalSpace sp(inst.participants.size());
  {
    io::Table t({"task", "A(task)"});
    const auto& g = inst.platform.graph();
    for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
      auto [k, m] = sp.interval(iv);
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        Rational v = sol.send[iv][e] * period;
        if (v.is_zero()) continue;
        t.add_row({"send(P" + std::to_string(g.edge(e).src) + " -> P" +
                       std::to_string(g.edge(e).dst) + ", v[" +
                       std::to_string(k) + "," + std::to_string(m) + "])",
                   v.to_string()});
      }
    }
    for (graph::NodeId n = 0; n < g.num_nodes(); ++n) {
      for (std::size_t task = 0; task < sp.num_tasks(); ++task) {
        Rational v = sol.cons[n][task] * period;
        if (v.is_zero()) continue;
        auto [k, l, m] = sp.task(task);
        t.add_row({"cons(P" + std::to_string(n) + ", T" + std::to_string(k) +
                       "," + std::to_string(l) + "," + std::to_string(m) + ")",
                   v.to_string()});
      }
    }
    t.print(std::cout);
  }

  core::TreeDecomposition trees = core::extract_trees(inst, sol);
  core::PeriodicSchedule sched = core::build_reduce_schedule(inst, trees);
  std::cout << "\nSchedule period " << sched.period << ", "
            << sched.comms.size() << " transfers + " << sched.comps.size()
            << " merges per period; one-port check: "
            << (sim::check_oneport(sched, inst.platform,
                                   {inst.message_size, inst.task_work})
                        .empty()
                    ? "PASS"
                    : "FAIL")
            << "\n";
  std::cout << "\nPipelined timeline (Fig. 6(e) analogue):\n"
            << sched.to_string();

  auto result = sim::simulate_schedule(inst.platform, sched, 30);
  std::cout << "\nSimulated 30 periods: " << io::pretty(
                   result.completed_operations)
            << " reductions in " << result.horizon
            << " time units (bound " << io::pretty(
                   sol.throughput * result.horizon)
            << "); steady rate per period: "
            << io::pretty(result.completed_by_period.back() -
                          result.completed_by_period[result.completed_by_period
                                                         .size() -
                                                     2])
            << " = TP * period = " << io::pretty(sol.throughput * sched.period)
            << "\n";
  return 0;
}
