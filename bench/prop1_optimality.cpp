// Empirical counterpart of Lemma 1 + Propositions 1-3: the constructed
// periodic schedules are asymptotically optimal. We execute each schedule
// for growing horizons K and report steady(G,K) / (TP * K) — the ratio must
// climb to 1 (and must never exceed it, by Lemma 1).

#include <iostream>

#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "core/tree_extract.h"
#include "io/report.h"
#include "io/table.h"
#include "platform/paper_instances.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

namespace {

constexpr std::size_t kHorizons[] = {2, 4, 8, 16, 32, 64, 128, 256};

void scatter_series(const char* name, const platform::ScatterInstance& inst) {
  auto flow = core::solve_scatter(inst);
  auto sched = core::build_flow_schedule(inst.platform, flow);
  std::cout << name << "  (TP = " << io::pretty(flow.throughput)
            << ", period = " << sched.period << ")\n";
  io::Table t({"periods", "time K", "completed", "TP*K", "ratio"});
  for (std::size_t periods : kHorizons) {
    auto r = sim::simulate_schedule(inst.platform, sched, periods);
    Rational bound = flow.throughput * r.horizon;
    t.add_row({std::to_string(periods), r.horizon.to_string(),
               io::pretty(r.completed_operations, 2),
               io::pretty(bound, 2),
               io::ratio(r.completed_operations, bound, 4)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

void reduce_series(const char* name, const platform::ReduceInstance& inst) {
  auto sol = core::solve_reduce(inst);
  auto trees = core::extract_trees(inst, sol);
  auto sched = core::build_reduce_schedule(inst, trees);
  std::cout << name << "  (TP = " << io::pretty(sol.throughput)
            << ", period = " << sched.period << ")\n";
  io::Table t({"periods", "completed", "TP*K", "ratio"});
  for (std::size_t periods : kHorizons) {
    auto r = sim::simulate_schedule(inst.platform, sched, periods);
    Rational bound = sol.throughput * r.horizon;
    t.add_row({std::to_string(periods),
               io::pretty(r.completed_operations, 2), io::pretty(bound, 2),
               io::ratio(r.completed_operations, bound, 4)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << io::banner(
      "Props. 1-3 — asymptotic optimality of the periodic schedules");
  scatter_series("Series of Scatters, Fig. 2 platform", platform::fig2_toy());
  reduce_series("Series of Reduces, Fig. 6 platform",
                platform::fig6_triangle());
  reduce_series("Series of Reduces, Tiers platform (Fig. 9)",
                platform::fig9_tiers());
  std::cout << "Expected: every column of ratios is non-decreasing and "
               "approaches 1 without exceeding it.\n";
  return 0;
}
