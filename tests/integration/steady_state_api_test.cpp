// Tests for the one-call convenience API (core/steady_state.h): the umbrella
// must produce exactly what the staged pipeline produces, for all three
// operations, in both message modes.

#include "core/steady_state.h"

#include <gtest/gtest.h>

#include "sim/oneport_check.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

TEST(SteadyStateApi, ScatterPlanMatchesStagedPipeline) {
  auto inst = platform::fig2_toy();
  FlowPlan plan = optimize_scatter(inst);
  EXPECT_EQ(plan.flow.throughput, R("1/2"));
  MultiFlow staged_flow = solve_scatter(inst);
  EXPECT_EQ(plan.flow.throughput, staged_flow.throughput);
  EXPECT_EQ(
      sim::check_oneport(plan.schedule, inst.platform, {inst.message_size}),
      "");
}

TEST(SteadyStateApi, ScatterNoSplitOption) {
  auto inst = platform::fig2_toy();
  PlanOptions options;
  options.allow_split_messages = false;
  FlowPlan plan = optimize_scatter(inst, options);
  EXPECT_TRUE(plan.schedule.has_integral_messages());
}

TEST(SteadyStateApi, GossipPlan) {
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(7, 6);
  inst.sources = {0, 1};
  inst.targets = {4, 5};
  FlowPlan plan = optimize_gossip(inst);
  EXPECT_GT(plan.flow.throughput, R("0"));
  EXPECT_EQ(plan.flow.validate(inst.platform), "");
  EXPECT_EQ(
      sim::check_oneport(plan.schedule, inst.platform, {inst.message_size}),
      "");
}

TEST(SteadyStateApi, ReducePlanCarriesTrees) {
  auto inst = platform::fig6_triangle();
  ReducePlan plan = optimize_reduce(inst);
  EXPECT_EQ(plan.solution.throughput, R("1"));
  EXPECT_EQ(plan.trees.total_weight, R("1"));
  EXPECT_EQ(plan.trees.verify_reconstitution(inst, plan.solution), "");
  EXPECT_EQ(sim::check_oneport(plan.schedule, inst.platform,
                               {inst.message_size, inst.task_work}),
            "");
}

TEST(SteadyStateApi, SolverOptionsPropagate) {
  // Solver options must reach the LP through the convenience API: one
  // simplex pivot cannot solve the Fig. 2 toy, so the solver reports an
  // iteration limit, which the LP builder surfaces as an exception.
  auto inst = platform::fig2_toy();
  PlanOptions options;
  options.solver.simplex.max_iterations = 1;
  EXPECT_THROW(optimize_scatter(inst, options), std::runtime_error);
}

}  // namespace
}  // namespace ssco::core
