// Pins every schedule, fluid run and compiled program on a fixed corpus.
//
// The schedule builders, the fluid simulator and ExecProgram compilation
// are pure functions of their inputs. This suite folds each output into one
// FNV-1a digest and pins it: the schedule's text, every fluid result
// (exact rationals per period, horizon, completed operations, steady flag)
// at horizons 1, 4, 30 and 80, and every ExecProgram field (transfers with
// their chunks, computations with their slices, type roles, admission
// orders, operations per period, verification, byte sizes, pacing and link
// rates; doubles by bit pattern). The corpus covers the paper toys
// (Fig. 2, Fig. 6, Fig. 9 Tiers), random n=8 scatter and gossip platforms
// and random n=7 reduces with four participants, each with split and
// whole-message schedules. A refactor of the schedule, simulator or
// compile layers that is not bit-identical shows up here.
//
// The digests hold for the portable build: SSCO_NATIVE_ARCH lets the
// compiler contract float expressions differently. When a digest
// mismatches on purpose (a deliberate behaviour change), the failure
// message prints the new value to paste into kPins.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/steady_state.h"
#include "exec/program.h"
#include "platform/paper_instances.h"
#include "sim/fluid_sim.h"
#include "testing/util.h"

namespace ssco {
namespace {

using num::Rational;

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
  void q(const Rational& r) { str(r.to_string()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One fluid run, reduced to what both operation kinds report: cumulative
/// per-period counts (one column per commodity for flows, the completed
/// reductions for reduce), horizon, completed operations and steady flag.
struct Fluid {
  Rational horizon;
  std::vector<std::vector<Rational>> by_period;
  Rational completed;
  bool steady = false;
};

void add(Fnv1a& h, const Fluid& f) {
  h.q(f.horizon);
  h.u64(f.by_period.size());
  for (const std::vector<Rational>& row : f.by_period) {
    h.u64(row.size());
    for (const Rational& v : row) h.q(v);
  }
  h.q(f.completed);
  h.u64(f.steady ? 1 : 0);
}

std::uint64_t digest(const exec::ExecProgram& p) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(p.kind));
  h.u64(p.num_types);
  for (const graph::NodeId u : p.supplier_of_type) h.u64(u);
  for (const graph::NodeId u : p.sink_of_type) h.u64(u);
  h.u64(p.transfers.size());
  for (const exec::TransferTemplate& t : p.transfers) {
    h.u64(t.edge);
    h.u64(t.src);
    h.u64(t.dst);
    h.u64(t.type);
    h.q(t.messages);
    h.u64(t.wire_bytes);
    h.u64(t.chunks.size());
    for (const exec::ChunkSpec& c : t.chunks) {
      h.q(c.messages);
      h.u64(c.bytes);
      h.f64(c.seconds);
      h.u64(c.whole_msgs);
    }
  }
  h.u64(p.comps.size());
  for (const exec::ComputeTemplate& c : p.comps) {
    h.u64(c.node);
    h.u64(c.left);
    h.u64(c.right);
    h.u64(c.product);
    h.q(c.count);
    h.u64(c.slices.size());
    for (const exec::ComputeSlice& s : c.slices) {
      h.q(s.count);
      h.f64(s.seconds);
    }
  }
  for (const auto* orders : {&p.out_order, &p.in_order, &p.cpu_order}) {
    h.u64(orders->size());
    for (const std::vector<std::size_t>& order : *orders) {
      h.u64(order.size());
      for (const std::size_t i : order) h.u64(i);
    }
  }
  h.q(p.period);
  h.q(p.throughput);
  h.q(p.ops_per_period);
  h.f64(p.seconds_per_unit);
  h.u64(p.bytes_per_message);
  h.u64(p.op_payload_bytes);
  for (const double r : p.modeled_rate) h.f64(r);
  for (const double r : p.actual_rate) h.f64(r);
  h.u64(p.msgs_per_period.size());
  for (const std::uint64_t m : p.msgs_per_period) h.u64(m);
  h.u64(p.verify ? 1 : 0);
  h.str(p.oneport_error);
  return h.value();
}

constexpr std::size_t kHorizons[] = {1, 4, 30, 80};

/// Compile options off the defaults: every fourth link at half rate, so the
/// drift-scaled chunk times differ from the modeled ones.
exec::ExecOptions pin_options(std::size_t num_edges) {
  exec::ExecOptions opt;
  opt.link_rate_scale.assign(num_edges, 1.0);
  for (std::size_t e = 0; e < num_edges; e += 4) opt.link_rate_scale[e] = 0.5;
  return opt;
}

struct Digests {
  std::uint64_t schedule = 0;
  std::uint64_t fluid = 0;
  std::uint64_t program = 0;
};

Fluid run_fluid(const platform::Platform& platform,
                const core::PeriodicSchedule& schedule, std::size_t periods) {
  const sim::FluidSimResult r =
      sim::simulate_schedule(platform, schedule, periods);
  return {r.horizon, r.delivered_by_period, r.completed_operations,
          r.steady_state_reached};
}

Fluid run_fluid(const platform::ReduceInstance& inst,
                const core::PeriodicSchedule& schedule, std::size_t periods) {
  const sim::FluidSimResult r =
      sim::simulate_schedule(inst.platform, schedule, periods);
  Fluid f{r.horizon, {}, r.completed_operations, r.steady_state_reached};
  for (const Rational& c : r.completed_by_period) f.by_period.push_back({c});
  return f;
}

core::PlanOptions plan_options(bool split) {
  core::PlanOptions options;
  options.allow_split_messages = split;
  return options;
}

Digests flow_digests(const platform::Platform& platform,
                     const core::FlowPlan& plan) {
  Digests d;
  Fnv1a s;
  s.str(plan.schedule.to_string());
  d.schedule = s.value();
  Fnv1a f;
  for (const std::size_t periods : kHorizons) {
    add(f, run_fluid(platform, plan.schedule, periods));
  }
  d.fluid = f.value();
  d.program = digest(exec::compile_flow_program(
      platform, plan.flow, plan.schedule, pin_options(platform.num_edges())));
  return d;
}

Digests reduce_digests(const platform::ReduceInstance& inst, bool split) {
  const core::ReducePlan plan =
      core::optimize_reduce(inst, plan_options(split));
  Digests d;
  Fnv1a s;
  s.str(plan.schedule.to_string());
  d.schedule = s.value();
  Fnv1a f;
  for (const std::size_t periods : kHorizons) {
    add(f, run_fluid(inst, plan.schedule, periods));
  }
  d.fluid = f.value();
  d.program = digest(exec::compile_reduce_program(
      inst, plan.solution.throughput, plan.schedule,
      pin_options(inst.platform.num_edges())));
  return d;
}

platform::GossipInstance random_gossip_instance(std::uint64_t seed) {
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(seed, 8);
  inst.sources = {0, 1};
  inst.targets = {6, 7};
  return inst;
}

struct PinCase {
  std::string name;
  std::function<Digests(bool split)> run;
};

std::vector<PinCase> corpus() {
  std::vector<PinCase> cases;
  cases.push_back({"fig2_scatter", [](bool split) {
    const auto inst = platform::fig2_toy();
    return flow_digests(inst.platform,
                        core::optimize_scatter(inst, plan_options(split)));
  }});
  cases.push_back({"fig6_reduce", [](bool split) {
    return reduce_digests(platform::fig6_triangle(), split);
  }});
  cases.push_back({"fig9_reduce", [](bool split) {
    return reduce_digests(platform::fig9_tiers(), split);
  }});
  for (const std::uint64_t seed : {19u, 38u, 57u, 76u, 95u, 3u, 7u}) {
    const std::string tag = "_seed" + std::to_string(seed);
    cases.push_back({"scatter8" + tag, [seed](bool split) {
      const auto inst = testing::random_scatter_instance(seed, 8, 3);
      return flow_digests(inst.platform,
                          core::optimize_scatter(inst, plan_options(split)));
    }});
    cases.push_back({"gossip8" + tag, [seed](bool split) {
      const auto inst = random_gossip_instance(seed);
      return flow_digests(inst.platform,
                          core::optimize_gossip(inst, plan_options(split)));
    }});
  }
  for (const std::uint64_t seed : {31u, 62u, 93u, 124u, 5u, 11u}) {
    cases.push_back({"reduce7_seed" + std::to_string(seed), [seed](bool split) {
      const auto inst = testing::random_reduce_instance(seed, 7, 4);
      return reduce_digests(inst, split);
    }});
  }
  return cases;
}

struct Pin {
  const char* name;
  Digests split;
  Digests no_split;
};

constexpr Pin kPins[] = {
    {"fig2_scatter",
     {0xc4972614cb6a62d9ULL, 0xec862de22901e1c1ULL, 0x8605c9400d3ba8ceULL},
     {0x6af067b6c39ac221ULL, 0x2d9f3df4227e95deULL, 0x0ffae45c6f5c8aa7ULL}},
    {"fig6_reduce",
     {0x67ff5229595aab18ULL, 0xc65954c5c23fc667ULL, 0xac39ddb8a9b0f2f6ULL},
     {0x67ff5229595aab18ULL, 0xc65954c5c23fc667ULL, 0xac39ddb8a9b0f2f6ULL}},
    {"fig9_reduce",
     {0x1bc0be099475282fULL, 0x1985b23431018adeULL, 0x7efd18d55c283652ULL},
     {0x73244abba1c91d70ULL, 0x3c7da6ffc6e7b07fULL, 0x518288a81c1c9bc0ULL}},
    {"scatter8_seed19",
     {0x4c85837b25d603fcULL, 0xade4514ec2666ecbULL, 0x086e179a715b1595ULL},
     {0x656d47707fb4c34eULL, 0x1fb864e8ed0c97d8ULL, 0xc26419d325db6ac8ULL}},
    {"gossip8_seed19",
     {0xedf7dc97ce67232bULL, 0x5f767f979606dd0bULL, 0xa26126d7c70d4952ULL},
     {0xa5245f990952bee4ULL, 0x8f04d636a3659c04ULL, 0xe407d88f3bc00f1aULL}},
    {"scatter8_seed38",
     {0x3e1ab18947d806a4ULL, 0xa86e39e84a091d68ULL, 0x1c922958dbf0c4a5ULL},
     {0x43684e9c579ea6ddULL, 0x5f4069dac30651c8ULL, 0x49452d325662f8a0ULL}},
    {"gossip8_seed38",
     {0x11cd3c8b2bd0917fULL, 0xf3172a2d04027e81ULL, 0x78d5a0a3fda7da7aULL},
     {0x26e3f21ec3bb5077ULL, 0xc015fc14df9fd8f0ULL, 0x4526ad5787dae550ULL}},
    {"scatter8_seed57",
     {0xfda9d6d08dea526cULL, 0x7c4349078886d061ULL, 0x26685ca7bc7c45e4ULL},
     {0xe5bc6dc4bb187b4bULL, 0xf99942be2b43fbacULL, 0x8ce8c1e5728adcfaULL}},
    {"gossip8_seed57",
     {0xedf2294ab2542ce9ULL, 0x0abc83ad4f88902dULL, 0x1398df7b84673fd0ULL},
     {0x5c5643d09bf0f8f7ULL, 0x0904a7ad19cb5814ULL, 0x3fe8738cf5087227ULL}},
    {"scatter8_seed76",
     {0xc8a07f87b8b07fb6ULL, 0xb8f30b6b1d227819ULL, 0x81874fecdf4fe28fULL},
     {0xe714adfa909a092cULL, 0x6b20e72396c84756ULL, 0xb73d56760aadef1aULL}},
    {"gossip8_seed76",
     {0xe4b3425b0f2a79b6ULL, 0xa0af9718031af0dcULL, 0xad805a3c39f12839ULL},
     {0x8623cbdc2aa6442cULL, 0xd32dcc81ac3ec39eULL, 0xa57c2313a0ae6f82ULL}},
    {"scatter8_seed95",
     {0x79ae3544d8fc65daULL, 0x7d84c0833ad4b8a6ULL, 0x39b394137fc0b1eeULL},
     {0x8f23e7a4a8a9f8eaULL, 0xed15f7a5f442c4c3ULL, 0xe068647a9b31887eULL}},
    {"gossip8_seed95",
     {0xd11c2cb4ec31fc73ULL, 0x0d6c6dacde7a9a53ULL, 0x1134f6d21cca0118ULL},
     {0x58e062dda5e1b412ULL, 0xfdaa839960c96668ULL, 0xc69d56805859e2d5ULL}},
    {"scatter8_seed3",
     {0x77c3baf11326825dULL, 0x3c0620c51907da63ULL, 0x33a85199dfaf1536ULL},
     {0x8eeba10768f35c66ULL, 0xcd38bc8e15f13f40ULL, 0xd192e816399180aeULL}},
    {"gossip8_seed3",
     {0x9bc3c67d360e789eULL, 0xef8305c6437890feULL, 0xe097628f969d5b2bULL},
     {0x77c0206c48d6e115ULL, 0xb10a51dbbc167335ULL, 0xb907004c6663fae1ULL}},
    {"scatter8_seed7",
     {0xa11c4e3e8181f0a5ULL, 0xd2cb93e6b4a31e85ULL, 0x568e5ee330b17862ULL},
     {0x4108acc95ad7b912ULL, 0xc14f267c0c162f6bULL, 0x6252d91d51a2c572ULL}},
    {"gossip8_seed7",
     {0x5d5d035986252d42ULL, 0x05f90ea98640eb02ULL, 0x87de16e521c37e00ULL},
     {0x3f51ea581303a630ULL, 0xaf7a99564b381647ULL, 0x72c07387757778b1ULL}},
    {"reduce7_seed31",
     {0xa64bc5c9a4822e79ULL, 0xe21a0e582ddb4549ULL, 0x742c32a89744356fULL},
     {0xc104264f9a30866dULL, 0x75f87e08d1a21cddULL, 0x27348f1b468c7bd5ULL}},
    {"reduce7_seed62",
     {0x33626435fc5ff2c4ULL, 0x25e22b5d3fd9a0cdULL, 0xaf5c664a44540f4fULL},
     {0x46d5b1c2c4b2688eULL, 0xec5a9b812f8f85caULL, 0x8dd639ea0bdefceeULL}},
    {"reduce7_seed93",
     {0x91dfbc4692fc278cULL, 0xc6b56e2a0f518b01ULL, 0xb0d036372aaa73e0ULL},
     {0x54a6d174429502dcULL, 0x13bf2c6a590a3388ULL, 0x7f614e706da021f9ULL}},
    {"reduce7_seed124",
     {0xd68f261dba350860ULL, 0x73249e1384008665ULL, 0x8107bc9b396df2a8ULL},
     {0xb184e7802f2acc6fULL, 0xc46e6ea24a436d29ULL, 0x93992f1c77f34178ULL}},
    {"reduce7_seed5",
     {0x6f28fe87710ec2a4ULL, 0xa2e872d5b58d9c9aULL, 0x8eb86f82cc9725e5ULL},
     {0x929208df0d274ee6ULL, 0xd39e26cca2a069f4ULL, 0x359f417e1293c0ddULL}},
    {"reduce7_seed11",
     {0x1a441b98a129be6eULL, 0xcdcd0d01d35b3dcaULL, 0x85e8beb42d2cfcbdULL},
     {0x5c7f47063d803400ULL, 0xe103d6b8705fa4d8ULL, 0xf27b754730c52f82ULL}},
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hex(const Digests& d) {
  return "{" + hex(d.schedule) + ", " + hex(d.fluid) + ", " + hex(d.program) +
         "}";
}

TEST(SchedulePinTest, EveryScheduleFluidRunAndProgramMatchesItsPinnedDigest) {
  const std::vector<PinCase> cases = corpus();
  ASSERT_EQ(cases.size(), std::size(kPins));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kPins[i].name);
    EXPECT_EQ(hex(cases[i].run(true)), hex(kPins[i].split))
        << cases[i].name << " (split messages)";
    EXPECT_EQ(hex(cases[i].run(false)), hex(kPins[i].no_split))
        << cases[i].name << " (whole messages)";
  }
}

}  // namespace
}  // namespace ssco
