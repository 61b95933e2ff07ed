// Empirical verification of the asymptotic-optimality claims
// (Lemma 1 + Propositions 1-3): no schedule can beat TP * K operations in K
// time units, and the constructed periodic schedules approach that bound as
// the horizon grows.

#include <gtest/gtest.h>

#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "core/tree_extract.h"
#include "sim/fluid_sim.h"
#include "testing/util.h"

namespace ssco {
namespace {

using num::Rational;
using testing::R;

double scatter_efficiency(const platform::ScatterInstance& inst,
                          std::size_t periods) {
  auto flow = core::solve_scatter(inst);
  auto sched = core::build_flow_schedule(inst.platform, flow);
  auto result = sim::simulate_schedule(inst.platform, sched, periods);
  return (result.completed_operations / (flow.throughput * result.horizon))
      .to_double();
}

TEST(AsymptoticOptimality, ScatterEfficiencyIncreasesWithHorizon) {
  auto inst = platform::fig2_toy();
  double e4 = scatter_efficiency(inst, 4);
  double e16 = scatter_efficiency(inst, 16);
  double e64 = scatter_efficiency(inst, 64);
  double e256 = scatter_efficiency(inst, 256);
  EXPECT_LE(e4, e16 + 1e-12);
  EXPECT_LE(e16, e64 + 1e-12);
  EXPECT_LE(e64, e256 + 1e-12);
  EXPECT_GT(e256, 0.99);
  EXPECT_LE(e256, 1.0 + 1e-12);  // Lemma 1: never above the LP bound
}

TEST(AsymptoticOptimality, ScatterLossIsBoundedConstant) {
  // steady(K) >= TP*K - c for a constant c: the absolute deficit must not
  // grow with the horizon.
  auto inst = platform::fig2_toy();
  auto flow = core::solve_scatter(inst);
  auto sched = core::build_flow_schedule(inst.platform, flow);
  auto run = [&](std::size_t periods) {
    auto r = sim::simulate_schedule(inst.platform, sched, periods);
    return (flow.throughput * r.horizon - r.completed_operations).to_double();
  };
  double deficit64 = run(64);
  double deficit256 = run(256);
  EXPECT_NEAR(deficit64, deficit256, 1e-9);
}

double reduce_efficiency(const platform::ReduceInstance& inst,
                         std::size_t periods) {
  auto sol = core::solve_reduce(inst);
  auto trees = core::extract_trees(inst, sol);
  auto sched = core::build_reduce_schedule(inst, trees);
  auto result = sim::simulate_schedule(inst.platform, sched, periods);
  return (result.completed_operations / (sol.throughput * result.horizon))
      .to_double();
}

TEST(AsymptoticOptimality, ReduceEfficiencyIncreasesWithHorizon) {
  auto inst = platform::fig6_triangle();
  double e5 = reduce_efficiency(inst, 5);
  double e20 = reduce_efficiency(inst, 20);
  double e80 = reduce_efficiency(inst, 80);
  EXPECT_LE(e5, e20 + 1e-12);
  EXPECT_LE(e20, e80 + 1e-12);
  EXPECT_GT(e80, 0.95);
  EXPECT_LE(e80, 1.0 + 1e-12);
}

TEST(AsymptoticOptimality, ReduceLossIsBoundedConstant) {
  auto inst = platform::fig6_triangle();
  auto sol = core::solve_reduce(inst);
  auto trees = core::extract_trees(inst, sol);
  auto sched = core::build_reduce_schedule(inst, trees);
  auto deficit = [&](std::size_t periods) {
    auto r = sim::simulate_schedule(inst.platform, sched, periods);
    return (sol.throughput * r.horizon - r.completed_operations).to_double();
  };
  EXPECT_NEAR(deficit(60), deficit(240), 1e-9);
}

TEST(AsymptoticOptimality, TiersReduceConvergesDespiteDeepPipeline) {
  auto inst = platform::fig9_tiers();
  double e10 = reduce_efficiency(inst, 10);
  double e60 = reduce_efficiency(inst, 60);
  EXPECT_LT(e10, e60);
  EXPECT_GT(e60, 0.75);
  EXPECT_LE(e60, 1.0 + 1e-12);
}

}  // namespace
}  // namespace ssco
