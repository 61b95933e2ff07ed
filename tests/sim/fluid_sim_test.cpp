// The fluid simulator on scatter/gossip and reduce schedules: steady state
// at the certified rate, the pipeline-fill ramp, and the asymptotic
// optimality of Props. 1-3.

#include "sim/fluid_sim.h"

#include <gtest/gtest.h>

#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "core/tree_extract.h"
#include "testing/util.h"

namespace ssco::sim {
namespace {

using testing::R;

// ---- scatter ----------------------------------------------------------------

struct FlowPipeline {
  platform::ScatterInstance inst;
  core::MultiFlow flow;
  core::PeriodicSchedule sched;
};

FlowPipeline fig2_pipeline() {
  FlowPipeline p;
  p.inst = platform::fig2_toy();
  p.flow = core::solve_scatter(p.inst);
  p.sched = core::build_flow_schedule(p.inst.platform, p.flow);
  return p;
}

TEST(ScatterSim, ReachesSteadyStateAtFullRate) {
  FlowPipeline p = fig2_pipeline();
  auto result = simulate_schedule(p.inst.platform, p.sched, 20);
  EXPECT_TRUE(result.steady_state_reached);
  // In the last period, every target received exactly TP * period.
  const auto& by_period = result.delivered_by_period;
  ASSERT_GE(by_period.size(), 2u);
  Rational per_period_expected = p.flow.throughput * p.sched.period;
  for (std::size_t k = 0; k < p.flow.commodities.size(); ++k) {
    Rational last_delta =
        by_period.back()[k] - by_period[by_period.size() - 2][k];
    EXPECT_EQ(last_delta, per_period_expected);
  }
}

TEST(ScatterSim, RampUpNeverExceedsSteadyRate) {
  FlowPipeline p = fig2_pipeline();
  auto result = simulate_schedule(p.inst.platform, p.sched, 20);
  Rational per_period = p.flow.throughput * p.sched.period;
  Rational prev(0);
  for (std::size_t i = 0; i < result.delivered_by_period.size(); ++i) {
    for (std::size_t k = 0; k < p.flow.commodities.size(); ++k) {
      Rational cum = result.delivered_by_period[i][k];
      // Cumulative deliveries can never exceed the fluid optimum TP * t.
      EXPECT_LE(cum, per_period * Rational(static_cast<std::int64_t>(i + 1)));
    }
    (void)prev;
  }
}

TEST(ScatterSim, CumulativeDeliveriesMonotone) {
  FlowPipeline p = fig2_pipeline();
  auto result = simulate_schedule(p.inst.platform, p.sched, 12);
  for (std::size_t k = 0; k < p.flow.commodities.size(); ++k) {
    for (std::size_t i = 1; i < result.delivered_by_period.size(); ++i) {
      EXPECT_GE(result.delivered_by_period[i][k],
                result.delivered_by_period[i - 1][k]);
    }
  }
}

TEST(ScatterSim, CompletedOperationsIsMinOverTargets) {
  FlowPipeline p = fig2_pipeline();
  auto result = simulate_schedule(p.inst.platform, p.sched, 10);
  Rational min_delivered = result.delivered[0];
  for (const Rational& d : result.delivered) {
    min_delivered = Rational::min(min_delivered, d);
  }
  EXPECT_EQ(result.completed_operations, min_delivered);
}

TEST(ScatterSim, HorizonIsPeriodsTimesPeriod) {
  FlowPipeline p = fig2_pipeline();
  auto result = simulate_schedule(p.inst.platform, p.sched, 7);
  EXPECT_EQ(result.horizon, p.sched.period * Rational(7));
}

TEST(ScatterSim, AsymptoticRatioApproachesOne) {
  // Proposition 1: steady(K)/opt(K) -> 1.
  FlowPipeline p = fig2_pipeline();
  auto short_run = simulate_schedule(p.inst.platform, p.sched, 4);
  auto long_run = simulate_schedule(p.inst.platform, p.sched, 64);
  auto ratio = [&p](const FluidSimResult& r) {
    return (r.completed_operations / (p.flow.throughput * r.horizon))
        .to_double();
  };
  EXPECT_GE(ratio(long_run), ratio(short_run));
  EXPECT_GT(ratio(long_run), 0.95);
}

TEST(ScatterSim, NoSplitScheduleMovesWholeMessages) {
  FlowPipeline p = fig2_pipeline();
  core::ScheduleOptions options;
  options.allow_split_messages = false;
  auto sched = core::build_flow_schedule(p.inst.platform, p.flow, options);
  auto result = simulate_schedule(p.inst.platform, sched, 10);
  EXPECT_TRUE(result.steady_state_reached);
  for (const Rational& d : result.delivered) {
    EXPECT_TRUE(d.is_integer());
  }
}

class ScatterSimPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScatterSimPropertyTest, RandomPlatformsConverge) {
  auto inst = testing::random_scatter_instance(GetParam(), 6, 2);
  auto flow = core::solve_scatter(inst);
  auto sched = core::build_flow_schedule(inst.platform, flow);
  auto result = simulate_schedule(inst.platform, sched, 30);
  EXPECT_TRUE(result.steady_state_reached);
  Rational per_period = flow.throughput * sched.period;
  const auto& by_period = result.delivered_by_period;
  for (std::size_t k = 0; k < flow.commodities.size(); ++k) {
    EXPECT_EQ(by_period.back()[k] - by_period[by_period.size() - 2][k],
              per_period);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterSimPropertyTest,
                         ::testing::Values(19, 38, 57, 76, 95));

// ---- reduce ----------------------------------------------------------------

struct ReducePipeline {
  platform::ReduceInstance inst;
  core::ReduceSolution sol;
  core::PeriodicSchedule sched;
};

ReducePipeline pipeline_for(platform::ReduceInstance inst) {
  ReducePipeline p;
  p.inst = std::move(inst);
  p.sol = core::solve_reduce(p.inst);
  auto trees = core::extract_trees(p.inst, p.sol);
  p.sched = core::build_reduce_schedule(p.inst, trees);
  return p;
}

TEST(ReduceSim, Fig6ReachesFullRate) {
  ReducePipeline p = pipeline_for(platform::fig6_triangle());
  auto result = simulate_schedule(p.inst.platform, p.sched, 30);
  EXPECT_TRUE(result.steady_state_reached);
  ASSERT_GE(result.completed_by_period.size(), 2u);
  Rational last_delta =
      result.completed_by_period.back() -
      result.completed_by_period[result.completed_by_period.size() - 2];
  EXPECT_EQ(last_delta, p.sol.throughput * p.sched.period);
}

TEST(ReduceSim, CompletionsNeverExceedFluidOptimum) {
  ReducePipeline p = pipeline_for(platform::fig6_triangle());
  auto result = simulate_schedule(p.inst.platform, p.sched, 30);
  Rational per_period = p.sol.throughput * p.sched.period;
  for (std::size_t i = 0; i < result.completed_by_period.size(); ++i) {
    EXPECT_LE(result.completed_by_period[i],
              per_period * Rational(static_cast<std::int64_t>(i + 1)));
  }
}

TEST(ReduceSim, CompletionsMonotone) {
  ReducePipeline p = pipeline_for(platform::fig6_triangle());
  auto result = simulate_schedule(p.inst.platform, p.sched, 20);
  for (std::size_t i = 1; i < result.completed_by_period.size(); ++i) {
    EXPECT_GE(result.completed_by_period[i],
              result.completed_by_period[i - 1]);
  }
}

TEST(ReduceSim, PipelineDepthDelaysFirstCompletion) {
  // The Tiers schedule has long transfer chains; the very first period
  // cannot already deliver the steady rate (the pipeline must fill).
  ReducePipeline p = pipeline_for(platform::fig9_tiers());
  auto result = simulate_schedule(p.inst.platform, p.sched, 40);
  Rational per_period = p.sol.throughput * p.sched.period;
  EXPECT_LT(result.completed_by_period.front(), per_period);
  // ... but it does converge.
  Rational last_delta =
      result.completed_by_period.back() -
      result.completed_by_period[result.completed_by_period.size() - 2];
  EXPECT_EQ(last_delta, per_period);
}

TEST(ReduceSim, AsymptoticRatioApproachesOne) {
  // Proposition 3 for reduce.
  ReducePipeline p = pipeline_for(platform::fig6_triangle());
  auto short_run = simulate_schedule(p.inst.platform, p.sched, 5);
  auto long_run = simulate_schedule(p.inst.platform, p.sched, 80);
  auto ratio = [&p](const FluidSimResult& r) {
    return (r.completed_operations / (p.sol.throughput * r.horizon))
        .to_double();
  };
  EXPECT_GE(ratio(long_run), ratio(short_run));
  EXPECT_GT(ratio(long_run), 0.95);
}

class ReduceSimPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReduceSimPropertyTest, RandomInstancesConverge) {
  ReducePipeline p =
      pipeline_for(testing::random_reduce_instance(GetParam(), 6, 3));
  auto result = simulate_schedule(p.inst.platform, p.sched, 40);
  EXPECT_TRUE(result.steady_state_reached);
  Rational last_delta =
      result.completed_by_period.back() -
      result.completed_by_period[result.completed_by_period.size() - 2];
  EXPECT_EQ(last_delta, p.sol.throughput * p.sched.period);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceSimPropertyTest,
                         ::testing::Values(31, 62, 93, 124));

// ---- roles ------------------------------------------------------------------

TEST(FluidSim, OnlySinkTypesDeliverAndCompletionIsTheirMinimum) {
  // Of a reduce schedule's interval types only the full interval has a sink
  // (the target); every other type stays in the buffers.
  ReducePipeline p = pipeline_for(platform::fig6_triangle());
  auto result = simulate_schedule(p.inst.platform, p.sched, 30);
  ASSERT_EQ(result.delivered.size(), p.sched.num_types());
  for (std::size_t t = 0; t < result.delivered.size(); ++t) {
    EXPECT_EQ(result.delivered[t],
              p.sched.sink_of_type[t] == graph::kInvalidId
                  ? Rational(0)
                  : result.completed_operations);
  }
}

TEST(FluidSim, RejectsActivityTypeWithoutRoles) {
  FlowPipeline p = fig2_pipeline();
  core::PeriodicSchedule no_roles = p.sched;
  no_roles.supplier_of_type.clear();
  no_roles.sink_of_type.clear();
  EXPECT_THROW((void)simulate_schedule(p.inst.platform, no_roles, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace ssco::sim
