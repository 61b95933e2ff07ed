// Pins every field of the event backend's ExecReport on a fixed corpus.
//
// The event backend is deterministic: the same program and options admit
// the same steps at the same virtual instants, so every report field is a
// pure function of its inputs. This suite folds each report into one
// FNV-1a digest (doubles by bit pattern, so a last-bit change anywhere
// fails it) and pins the digests of the paper toys, a random n=16 scatter
// clean and with a quarter of its links at half rate, two dense random n=12
// reduces (one at half rate, one whose exact stock needs more than 64
// bits of common-denominator units), and seeded chaos
// scenarios with loss, jitter, collapse, slowdown, blackout and a run
// deadline. Any change to admission order or timing in exec/engine.cpp
// that is not bit-identical shows up here.
//
// The digests hold for the portable build: SSCO_NATIVE_ARCH lets the
// compiler contract float expressions differently. When a digest
// mismatches on purpose (a deliberate behaviour change), the failure
// message prints the new value to paste into kPins.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "core/steady_state.h"
#include "exec/exec_report.h"
#include "exec/faults.h"
#include "exec/program.h"
#include "platform/paper_instances.h"
#include "sim/event_exec.h"
#include "testing/util.h"

namespace ssco {
namespace {

using exec::ExecOptions;
using exec::ExecReport;

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const ExecReport& r) {
  Fnv1a h;
  h.u64(r.simulated ? 1 : 0);
  h.u64(r.workers);
  h.f64(r.elapsed_seconds);
  h.u64(r.operations);
  h.u64(r.payload_bytes);
  h.u64(r.wire_bytes);
  h.f64(r.achieved_ops_per_sec);
  h.f64(r.achieved_bytes_per_sec);
  h.f64(r.certified_ops_per_sec);
  h.f64(r.certified_bytes_per_sec);
  h.f64(r.efficiency);
  h.u64(r.total_operations);
  h.f64(r.total_seconds);
  h.f64(r.warmup_seconds);
  h.u64(r.oneport_violations);
  h.u64(r.delivery_errors);
  h.u64(r.faults_injected);
  h.u64(r.chunks_lost);
  h.u64(r.retransmits);
  h.u64(r.edges.size());
  for (const exec::EdgeTraffic& e : r.edges) {
    h.u64(e.edge);
    h.u64(e.wire_bytes);
    h.f64(e.busy_seconds);
    h.f64(e.modeled_bytes_per_sec);
    h.f64(e.effective_bytes_per_sec);
  }
  h.u64(r.ports.size());
  for (const exec::PortUtilization& p : r.ports) {
    h.f64(p.out);
    h.f64(p.in);
    h.f64(p.cpu);
  }
  h.u64(static_cast<std::uint64_t>(r.fault.code));
  h.u64(r.fault.edge);
  h.u64(r.fault.node);
  h.f64(r.fault.at_seconds);
  h.str(r.fault.message);
  return h.value();
}

ExecOptions pin_options() {
  ExecOptions opt;
  opt.warmup_periods = 6;
  opt.measure_periods = 16;
  opt.target_period_seconds = 4e-3;
  return opt;
}

/// Every fourth link at half its modeled rate.
std::vector<double> quarter_at_half_rate(std::size_t num_edges) {
  std::vector<double> scale(num_edges, 1.0);
  for (std::size_t e = 0; e < num_edges; e += 4) scale[e] = 0.5;
  return scale;
}

/// chaos_plan over the edges `schedule` actually uses: drawn from all of
/// a platform's edges, most of a seed's faults land on idle links and never
/// bite.
exec::FaultPlan chaos_on_used_edges(std::uint64_t seed,
                                    const platform::Platform& platform,
                                    const core::PeriodicSchedule& schedule,
                                    double period_seconds) {
  std::vector<graph::EdgeId> used;
  for (const core::CommActivity& a : schedule.comms) used.push_back(a.edge);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  exec::FaultPlan plan = exec::chaos_plan(seed, used.size(),
                                          platform.num_nodes(), period_seconds);
  for (auto& f : plan.losses) f.edge = used[f.edge];
  for (auto& f : plan.jitters) f.edge = used[f.edge];
  for (auto& f : plan.rate_collapses) f.edge = used[f.edge];
  for (auto& f : plan.blackouts) f.edge = used[f.edge];
  return plan;
}

struct PinCase {
  std::string name;
  std::function<ExecReport()> run;
};

std::vector<PinCase> corpus() {
  std::vector<PinCase> cases;
  cases.push_back({"fig2_scatter", [] {
    const auto inst = platform::fig2_toy();
    const auto plan = core::optimize_scatter(inst);
    return sim::simulate_flow_execution(inst.platform, plan, pin_options());
  }});
  cases.push_back({"fig6_reduce", [] {
    const auto inst = platform::fig6_triangle();
    const auto plan = core::optimize_reduce(inst);
    return sim::simulate_reduce_execution(inst, plan, pin_options());
  }});
  cases.push_back({"fig9_reduce", [] {
    const auto inst = platform::fig9_tiers();
    const auto plan = core::optimize_reduce(inst);
    return sim::simulate_reduce_execution(inst, plan, pin_options());
  }});
  cases.push_back({"random16_scatter", [] {
    const auto inst = testing::random_scatter_instance(7, 16, 8);
    const auto plan = core::optimize_scatter(inst);
    return sim::simulate_flow_execution(inst.platform, plan, pin_options());
  }});
  cases.push_back({"random16_scatter_half_rate", [] {
    const auto inst = testing::random_scatter_instance(7, 16, 8);
    const auto plan = core::optimize_scatter(inst);
    ExecOptions opt = pin_options();
    opt.link_rate_scale = quarter_at_half_rate(inst.platform.num_edges());
    return sim::simulate_flow_execution(inst.platform, plan, opt);
  }});
  cases.push_back({"random12_reduce_half_rate", [] {
    const auto inst = testing::random_reduce_instance(4, 12, 5);
    const auto plan = core::optimize_reduce(inst);
    ExecOptions opt = pin_options();
    opt.link_rate_scale = quarter_at_half_rate(inst.platform.num_edges());
    return sim::simulate_reduce_execution(inst, plan, opt);
  }});
  // Dense n=12, 5 parts, seed 14: counted in units of the LCM of its
  // type's denominators (58 bits), one transfer's messages per period take
  // 75 bits.
  cases.push_back({"random12_seed14_reduce", [] {
    const auto inst = testing::random_reduce_instance(14, 12, 5);
    const auto plan = core::optimize_reduce(inst);
    return sim::simulate_reduce_execution(inst, plan, pin_options());
  }});
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    cases.push_back({"chaos" + std::to_string(seed) + "_random16_scatter",
                     [seed] {
      const auto inst = testing::random_scatter_instance(7, 16, 8);
      const auto plan = core::optimize_scatter(inst);
      ExecOptions opt = pin_options();
      opt.faults = chaos_on_used_edges(seed, inst.platform, plan.schedule,
                                       opt.target_period_seconds);
      // Seed 7 runs against a deadline that fires mid-window.
      if (seed == 7) opt.deadline_seconds = 12 * opt.target_period_seconds;
      return sim::simulate_flow_execution(inst.platform, plan, opt);
    }});
  }
  for (std::uint64_t seed : {2u, 3u}) {
    cases.push_back({"chaos" + std::to_string(seed) + "_fig9_reduce", [seed] {
      const auto inst = platform::fig9_tiers();
      const auto plan = core::optimize_reduce(inst);
      ExecOptions opt = pin_options();
      opt.faults = chaos_on_used_edges(seed, inst.platform, plan.schedule,
                                       opt.target_period_seconds);
      return sim::simulate_reduce_execution(inst, plan, opt);
    }});
  }
  return cases;
}

struct Pin {
  const char* name;
  std::uint64_t digest;
};

constexpr Pin kPins[] = {
    {"fig2_scatter", 0x039ffd589625d9fcULL},
    {"fig6_reduce", 0x0be1dd8fd8bc329cULL},
    {"fig9_reduce", 0x154f758b07fa086cULL},
    {"random16_scatter", 0xa6dc50c18f79cfa1ULL},
    {"random16_scatter_half_rate", 0x6c29d0237e7804d3ULL},
    {"random12_reduce_half_rate", 0x76e1d86e4722249dULL},
    {"random12_seed14_reduce", 0xbaad038a2dfc7df9ULL},
    {"chaos0_random16_scatter", 0x3e604fd276c1f995ULL},
    {"chaos1_random16_scatter", 0x23eb3db53bb3a8c8ULL},
    {"chaos2_random16_scatter", 0x79f7f65cce1fbd08ULL},
    {"chaos3_random16_scatter", 0x635d3fb10c1744abULL},
    {"chaos4_random16_scatter", 0xf52061787af4c523ULL},
    {"chaos5_random16_scatter", 0x9ace6eb42262801eULL},
    {"chaos6_random16_scatter", 0xeb7b77b55d298d86ULL},
    {"chaos7_random16_scatter", 0x564094cc363e6727ULL},
    {"chaos2_fig9_reduce", 0xda50ee8345616232ULL},
    {"chaos3_fig9_reduce", 0x0d3da88c3141f420ULL},
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(EventExecPinTest, EveryReportFieldMatchesItsPinnedDigest) {
  const std::vector<PinCase> cases = corpus();
  ASSERT_EQ(cases.size(), std::size(kPins));
  // The pins only guard what the corpus exercises: a clean window,
  // retransmissions and a deadline fault must all occur.
  bool clean = false, retransmit = false, deadline = false;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kPins[i].name);
    const ExecReport report = cases[i].run();
    EXPECT_EQ(hex(digest(report)), hex(kPins[i].digest))
        << cases[i].name << ": " << report.fault.to_string()
        << ", efficiency " << report.efficiency;
    clean = clean || (report.ok() && report.faults_injected == 0);
    retransmit = retransmit || report.retransmits > 0;
    deadline = deadline ||
               report.fault.code == exec::FaultCode::kDeadlineExceeded;
  }
  EXPECT_TRUE(clean);
  EXPECT_TRUE(retransmit);
  EXPECT_TRUE(deadline);
}

}  // namespace
}  // namespace ssco
