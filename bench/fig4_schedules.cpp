// Reproduces paper Fig. 4: the two concrete periodic schedules for the
// Fig. 2 scatter — (a) messages may be split across time slices (period 12),
// (b) whole messages only (the period is rescaled; the paper reaches 48).
// Both schedules are statically one-port-checked and executed in the fluid
// simulator.

#include <iostream>

#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "io/report.h"
#include "platform/paper_instances.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"

using namespace ssco;
using num::Rational;

namespace {

void describe(const char* title, const platform::ScatterInstance& inst,
              const core::MultiFlow& flow,
              const core::PeriodicSchedule& sched) {
  std::cout << title << "\n";
  std::cout << "  period = " << sched.period
            << ", activities = " << sched.comms.size()
            << ", whole messages only = "
            << (sched.has_integral_messages() ? "yes" : "no") << "\n";
  std::string err =
      sim::check_oneport(sched, inst.platform, {inst.message_size});
  std::cout << "  one-port check: " << (err.empty() ? "PASS" : err) << "\n";
  auto result = sim::simulate_schedule(inst.platform, sched, 24);
  std::cout << "  simulated 24 periods: completed "
            << io::pretty(result.completed_operations) << " ops in "
            << result.horizon << " time units (optimal bound "
            << io::pretty(flow.throughput * result.horizon)
            << "), steady state: "
            << (result.steady_state_reached ? "reached" : "NOT reached")
            << "\n";
  std::cout << "  timeline:\n";
  std::string timeline = sched.to_string();
  // Indent the timeline block.
  std::size_t pos = 0;
  while (pos < timeline.size()) {
    std::size_t nl = timeline.find('\n', pos);
    if (nl == std::string::npos) nl = timeline.size();
    std::cout << "    " << timeline.substr(pos, nl - pos) << "\n";
    pos = nl + 1;
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << io::banner("Fig. 4 — concrete schedules for the Fig. 2 toy");

  auto inst = platform::fig2_toy();
  core::MultiFlow flow = core::solve_scatter(inst);

  core::PeriodicSchedule split =
      core::build_flow_schedule(inst.platform, flow);
  // Present at the paper's period 12.
  split.scale(Rational(12) / split.period);
  describe("(a) split messages allowed, period 12:", inst, flow, split);

  core::ScheduleOptions nosplit;
  nosplit.allow_split_messages = false;
  core::PeriodicSchedule whole =
      core::build_flow_schedule(inst.platform, flow, nosplit);
  describe("(b) whole messages only (paper: period 48):", inst, flow, whole);

  std::cout << "no-split period / split period = "
            << (whole.period / Rational(12)) << " * 12\n";
  return 0;
}
