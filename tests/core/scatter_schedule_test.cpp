#include "core/scatter_schedule.h"

#include <gtest/gtest.h>

#include "core/gossip_lp.h"
#include "core/integralize.h"
#include "core/scatter_lp.h"
#include "graph/generators.h"
#include "sim/oneport_check.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

TEST(ScatterSchedule, Fig2RealizesThroughputOneHalf) {
  auto inst = platform::fig2_toy();
  MultiFlow flow = solve_scatter(inst);
  PeriodicSchedule sched = build_flow_schedule(inst.platform, flow);
  // Delivered messages per period at each target = TP * period.
  Rational expected = flow.throughput * sched.period;
  for (std::size_t k = 0; k < inst.targets.size(); ++k) {
    EXPECT_EQ(sched.delivered_per_period(inst.targets[k], k,
                                         inst.platform.graph()),
              expected);
  }
  EXPECT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
}

TEST(ScatterSchedule, NoSplitModeGivesIntegralMessages) {
  // The Fig. 4(b) construction: rescale until no message is split.
  auto inst = platform::fig2_toy();
  MultiFlow flow = solve_scatter(inst);
  ScheduleOptions options;
  options.allow_split_messages = false;
  PeriodicSchedule sched = build_flow_schedule(inst.platform, flow, options);
  EXPECT_TRUE(sched.has_integral_messages());
  EXPECT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
  // The no-split period is a multiple of the split one.
  PeriodicSchedule split = build_flow_schedule(inst.platform, flow);
  EXPECT_TRUE((sched.period / split.period).is_integer());
}

TEST(ScatterSchedule, ActivitiesFitWithinPeriod) {
  auto inst = platform::fig2_toy();
  MultiFlow flow = solve_scatter(inst);
  PeriodicSchedule sched = build_flow_schedule(inst.platform, flow);
  for (const CommActivity& c : sched.comms) {
    EXPECT_GE(c.start, R("0"));
    EXPECT_LE(c.end, sched.period);
    EXPECT_LT(c.start, c.end);
  }
}

TEST(ScatterSchedule, WorksForGossipFlows) {
  platform::GossipInstance inst;
  graph::Digraph g = graph::complete(4);
  std::vector<Rational> costs(g.num_edges(), R("1"));
  std::vector<Rational> speeds(4, Rational(1));
  inst.platform =
      platform::Platform(std::move(g), std::move(costs), std::move(speeds));
  for (graph::NodeId i = 0; i < 4; ++i) {
    inst.sources.push_back(i);
    inst.targets.push_back(i);
  }
  MultiFlow flow = solve_gossip(inst);
  PeriodicSchedule sched = build_flow_schedule(inst.platform, flow);
  EXPECT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
  Rational expected = flow.throughput * sched.period;
  for (std::size_t p = 0; p < flow.commodities.size(); ++p) {
    EXPECT_EQ(sched.delivered_per_period(flow.commodities[p].destination, p,
                                         inst.platform.graph()),
              expected);
  }
}

TEST(ScatterSchedule, MessageSizeAffectsDurations) {
  auto inst = platform::fig2_toy();
  inst.message_size = R("3");
  MultiFlow flow = solve_scatter(inst);
  PeriodicSchedule sched = build_flow_schedule(inst.platform, flow);
  // check_oneport verifies duration == messages * size * c(e) exactly.
  EXPECT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
}

class ScatterSchedulePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScatterSchedulePropertyTest, RandomPlatformsScheduleCleanly) {
  auto inst = testing::random_scatter_instance(GetParam(), 7, 3);
  MultiFlow flow = solve_scatter(inst);
  PeriodicSchedule sched = build_flow_schedule(inst.platform, flow);
  EXPECT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
  Rational expected = flow.throughput * sched.period;
  for (std::size_t k = 0; k < inst.targets.size(); ++k) {
    EXPECT_EQ(sched.delivered_per_period(inst.targets[k], k,
                                         inst.platform.graph()),
              expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterSchedulePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ssco::core
