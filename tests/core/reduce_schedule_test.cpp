#include "core/reduce_schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/reduce_lp.h"
#include "sim/oneport_check.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

PeriodicSchedule schedule_for(const platform::ReduceInstance& inst,
                              const ScheduleOptions& options = {}) {
  ReduceSolution sol = solve_reduce(inst);
  TreeDecomposition d = extract_trees(inst, sol);
  return build_reduce_schedule(inst, d, options);
}

TEST(ReduceSchedule, Fig6OnePortValidAndThroughputRealized) {
  auto inst = platform::fig6_triangle();
  ReduceSolution sol = solve_reduce(inst);
  TreeDecomposition d = extract_trees(inst, sol);
  PeriodicSchedule sched = build_reduce_schedule(inst, d);
  EXPECT_EQ(
      sim::check_oneport(sched, inst.platform,
                         {inst.message_size, inst.task_work}),
      "");
  // Completed reductions per period: full-interval arrivals at the target
  // plus final merges computed there.
  const IntervalSpace sp(inst.participants.size());
  EXPECT_EQ(
      sched.delivered_per_period(sp.full_interval_id(), inst.platform.graph()),
      sol.throughput * sched.period);
}

TEST(ReduceSchedule, ComputeActivitiesNeverOverlapPerNode) {
  auto inst = platform::fig9_tiers();
  PeriodicSchedule sched = schedule_for(inst);
  // check_oneport covers this, but assert the packing directly too.
  std::map<graph::NodeId, std::vector<std::pair<Rational, Rational>>> per_node;
  for (const CompActivity& c : sched.comps) {
    per_node[c.node].emplace_back(c.start, c.end);
  }
  for (auto& [node, spans] : per_node) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      EXPECT_LE(spans[i].second, spans[i + 1].first);
    }
    EXPECT_LE(spans.back().second, sched.period);
  }
}

TEST(ReduceSchedule, Fig9OnePortValid) {
  auto inst = platform::fig9_tiers();
  PeriodicSchedule sched = schedule_for(inst);
  EXPECT_EQ(
      sim::check_oneport(sched, inst.platform,
                         {inst.message_size, inst.task_work}),
      "");
}

TEST(ReduceSchedule, NoSplitModeIntegralMessages) {
  auto inst = platform::fig6_triangle();
  ScheduleOptions options;
  options.allow_split_messages = false;
  PeriodicSchedule sched = schedule_for(inst, options);
  EXPECT_TRUE(sched.has_integral_messages());
  EXPECT_EQ(
      sim::check_oneport(sched, inst.platform,
                         {inst.message_size, inst.task_work}),
      "");
}

TEST(ReduceSchedule, PeriodMakesTreeWeightsIntegral) {
  auto inst = platform::fig9_tiers();
  ReduceSolution sol = solve_reduce(inst);
  TreeDecomposition d = extract_trees(inst, sol);
  PeriodicSchedule sched = build_reduce_schedule(inst, d);
  for (const ReductionTree& t : d.trees) {
    EXPECT_TRUE((t.weight * sched.period).is_integer());
  }
}

class ReduceSchedulePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReduceSchedulePropertyTest, RandomInstancesScheduleCleanly) {
  auto inst = testing::random_reduce_instance(GetParam(), 6, 4);
  ReduceSolution sol = solve_reduce(inst);
  TreeDecomposition d = extract_trees(inst, sol);
  PeriodicSchedule sched = build_reduce_schedule(inst, d);
  EXPECT_EQ(
      sim::check_oneport(sched, inst.platform,
                         {inst.message_size, inst.task_work}),
      "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceSchedulePropertyTest,
                         ::testing::Values(21, 42, 63, 84, 105));

}  // namespace
}  // namespace ssco::core
