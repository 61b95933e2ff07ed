// Full-pipeline integration tests: LP -> integralization -> edge coloring ->
// periodic schedule -> one-port check -> fluid simulation, for scatter,
// gossip and reduce, on the paper instances and on random platforms.

#include <gtest/gtest.h>

#include "baselines/reduce_trees.h"
#include "baselines/scatter_trees.h"
#include "core/gossip_lp.h"
#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "core/tree_extract.h"
#include "sim/oneport_check.h"
#include "sim/fluid_sim.h"
#include "testing/util.h"

namespace ssco {
namespace {

using num::Rational;
using testing::R;

class ScatterEndToEndTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScatterEndToEndTest, FullPipelineInvariants) {
  auto inst = testing::random_scatter_instance(GetParam(), 9, 4);

  // 1. LP: certified exact optimum, all constraints hold.
  core::MultiFlow flow = core::solve_scatter(inst);
  ASSERT_TRUE(flow.certified);
  ASSERT_EQ(flow.validate(inst.platform), "");
  ASSERT_GT(flow.throughput, R("0"));

  // 2. Baselines never beat it.
  EXPECT_GE(flow.throughput,
            baselines::scatter_shortest_path(inst).throughput);
  EXPECT_GE(flow.throughput,
            baselines::scatter_greedy_congestion(inst).throughput);

  // 3. Schedule: one-port valid, delivers TP * period to every target.
  core::PeriodicSchedule sched =
      core::build_flow_schedule(inst.platform, flow);
  ASSERT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
  for (std::size_t k = 0; k < inst.targets.size(); ++k) {
    EXPECT_EQ(sched.delivered_per_period(inst.targets[k], k,
                                         inst.platform.graph()),
              flow.throughput * sched.period);
  }

  // 4. Simulation: the pipeline fills and runs at exactly the LP rate.
  auto result = sim::simulate_schedule(inst.platform, sched, 30);
  EXPECT_TRUE(result.steady_state_reached);
  double ratio = (result.completed_operations /
                  (flow.throughput * result.horizon))
                     .to_double();
  EXPECT_GT(ratio, 0.7);  // ramp-up loss only
  EXPECT_LE(ratio, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterEndToEndTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class ReduceEndToEndTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReduceEndToEndTest, FullPipelineInvariants) {
  auto inst = testing::random_reduce_instance(GetParam(), 7, 4);

  // 1. LP.
  core::ReduceSolution sol = core::solve_reduce(inst);
  ASSERT_TRUE(sol.certified);
  ASSERT_EQ(sol.validate(inst), "");
  ASSERT_GT(sol.throughput, R("0"));

  // 2. Trees: exact decomposition within Theorem 1's bound.
  core::TreeDecomposition trees = core::extract_trees(inst, sol);
  ASSERT_EQ(trees.total_weight, sol.throughput);
  ASSERT_EQ(trees.verify_reconstitution(inst, sol), "");
  const std::size_t n = inst.platform.num_nodes();
  EXPECT_LE(trees.trees.size(), 2 * n * n * n * n);
  for (const auto& t : trees.trees) {
    EXPECT_EQ(t.validate(inst), "");
    // Pipelining ANY single extracted tree alone is feasible for SSR, so it
    // can never beat the LP optimum.
    EXPECT_GE(sol.throughput, baselines::single_tree_throughput(inst, t));
  }

  // 3. Schedule.
  core::PeriodicSchedule sched = core::build_reduce_schedule(inst, trees);
  ASSERT_EQ(sim::check_oneport(sched, inst.platform,
                               {inst.message_size, inst.task_work}),
            "");

  // 4. Simulation converges to the LP rate.
  auto result = sim::simulate_schedule(inst.platform, sched, 40);
  EXPECT_TRUE(result.steady_state_reached);
  ASSERT_GE(result.completed_by_period.size(), 2u);
  Rational last_delta =
      result.completed_by_period.back() -
      result.completed_by_period[result.completed_by_period.size() - 2];
  EXPECT_EQ(last_delta, sol.throughput * sched.period);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceEndToEndTest,
                         ::testing::Values(111, 222, 333, 444, 555));

TEST(GossipEndToEnd, CompletePipelineOnRandomPlatform) {
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(77, 7);
  inst.sources = {0, 1, 2};
  inst.targets = {4, 5, 6};
  core::MultiFlow flow = core::solve_gossip(inst);
  ASSERT_EQ(flow.validate(inst.platform), "");
  core::PeriodicSchedule sched =
      core::build_flow_schedule(inst.platform, flow);
  ASSERT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
  auto result = sim::simulate_schedule(inst.platform, sched, 25);
  EXPECT_TRUE(result.steady_state_reached);
}

TEST(EndToEnd, Fig2FullReproduction) {
  // The complete Sec. 3.2 story in one test.
  auto inst = platform::fig2_toy();
  auto flow = core::solve_scatter(inst);
  EXPECT_EQ(flow.throughput, R("1/2"));
  auto sched = core::build_flow_schedule(inst.platform, flow);
  EXPECT_EQ(sim::check_oneport(sched, inst.platform, {inst.message_size}), "");
  // Scaled to the paper's presentation period 12: 6 messages per target.
  core::PeriodicSchedule presentation = sched;
  presentation.scale(R("12") / sched.period);
  EXPECT_EQ(presentation.period, R("12"));
  for (std::size_t k = 0; k < inst.targets.size(); ++k) {
    EXPECT_EQ(presentation.delivered_per_period(inst.targets[k], k,
                                                inst.platform.graph()),
              R("6"));
  }
}

TEST(EndToEnd, Fig6FullReproduction) {
  auto inst = platform::fig6_triangle();
  auto sol = core::solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("1"));
  auto trees = core::extract_trees(inst, sol);
  EXPECT_EQ(trees.total_weight, R("1"));
  auto sched = core::build_reduce_schedule(inst, trees);
  EXPECT_EQ(sim::check_oneport(sched, inst.platform,
                               {inst.message_size, inst.task_work}),
            "");
  auto result = sim::simulate_schedule(inst.platform, sched, 30);
  EXPECT_TRUE(result.steady_state_reached);
}

}  // namespace
}  // namespace ssco
