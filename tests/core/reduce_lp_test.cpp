#include "core/reduce_lp.h"

#include <gtest/gtest.h>

#include "baselines/reduce_trees.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

TEST(ReduceLp, Fig6TriangleThroughputIsOne) {
  // Paper Sec. 4.3: one reduction per time-unit, period 3.
  auto inst = platform::fig6_triangle();
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("1"));
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.validate(inst), "");
}

TEST(ReduceLp, Fig6TargetComputesAllFinalMerges) {
  // Node 0 (speed 2) executes the final T(0,*,2) at rate TP: v[0,2] can only
  // be assembled with v[0,0], which lives on node 0 and node 0 never sends
  // it in any optimal basic solution... weaker invariant that must hold in
  // EVERY optimum: total final-merge + inbound-full rate at node 0 is TP.
  auto inst = platform::fig6_triangle();
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.net_balance(inst, sol.space().full_interval_id(), 0),
            sol.throughput);
}

TEST(ReduceLp, Fig9TiersReconstruction) {
  // Our reconstruction of the Fig. 9 platform (link costs are not printed in
  // the paper; see DESIGN.md). Golden value, exact: TP = 1/6. The paper's
  // own instance gives 2/9 — same regime, and the qualitative claims
  // (LP > any single tree; small tree family) are asserted below.
  auto inst = platform::fig9_tiers();
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("1/6"));
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.validate(inst), "");

  for (auto tree :
       {baselines::flat_reduce_tree(inst), baselines::chain_reduce_tree(inst),
        baselines::binomial_reduce_tree(inst)}) {
    EXPECT_GE(sol.throughput, baselines::single_tree_throughput(inst, tree));
  }
}

TEST(ReduceLp, TwoNodesDirectLink) {
  // P0 --(c=1)--> P1(target, speed 1): per op one transfer of v[0,0] and one
  // merge T(0,0,1) on P1. Ports allow 1 msg/unit; CPU allows 1 task/unit.
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1"));
  b.add_link(p0, p1, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = p1;
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("1"));
  EXPECT_EQ(sol.validate(inst), "");
}

TEST(ReduceLp, SlowLinkBindsThroughput) {
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1"));
  b.add_link(p0, p1, R("4"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = p1;
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("1/4"));
}

TEST(ReduceLp, SlowCpuBindsThroughput) {
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1/8"));  // merge takes 8 time-units
  b.add_link(p0, p1, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = p1;
  ReduceSolution sol = solve_reduce(inst);
  // P0 can also compute? No: the only merge T(0,0,1) needs v[1,1], owned by
  // P1, and v[0,0]. Either node may merge; P0 is faster, so the LP ships
  // v[1,1] to P0, merges there at rate 1, and ships v[0,1] back... both
  // transfers share the ports: in+out of each node carry 1 message each
  // way -> feasible at rate 1/2? P0 out: v[0,1] back (1/unit). P0 in:
  // v[1,1]. Rate r needs r out + r in on each node: each port busy r*1 <=
  // 1. CPU at P0: r <= 1. So r = 1 should be feasible... but P1's out-port
  // also sends v[1,1] at r and receives v[0,1] at r: fine at r=1.
  EXPECT_EQ(sol.throughput, R("1"));
  EXPECT_EQ(sol.validate(inst), "");
}

TEST(ReduceLp, ComputeNodesRestrictionMatters) {
  // Same platform, but computation restricted to the slow target: the CPU
  // becomes the bottleneck.
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1/8"));
  b.add_link(p0, p1, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = p1;
  ReduceLpOptions options;
  options.compute_nodes = {p1};
  ReduceSolution sol = solve_reduce(inst, options);
  EXPECT_EQ(sol.throughput, R("1/8"));
}

TEST(ReduceLp, NonCommutativityBlocksSkewedMerges) {
  // Chain 0 - 1 - 2 (participants in rank order 0,1,2; target = node 2).
  // v[0,0] and v[2,2] can NOT merge directly (non-adjacent intervals):
  // every schedule must form v[0,1] or v[1,2] first, so all traffic crosses
  // the middle node's ports.
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("100"));
  auto p1 = b.add_node("P1", R("100"));
  auto p2 = b.add_node("P2", R("100"));
  b.add_link(p0, p1, R("1"));
  b.add_link(p1, p2, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1, p2};
  inst.target = p2;
  ReduceSolution sol = solve_reduce(inst);
  // Node 1 must receive v[0,0] (1 msg) and emit a partial (1 msg): rate 1.
  EXPECT_EQ(sol.throughput, R("1"));
  EXPECT_EQ(sol.validate(inst), "");
}

TEST(ReduceLp, MessageSizeAndTaskWorkScale) {
  auto inst = platform::fig6_triangle();
  inst.message_size = R("2");
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("1/2"));
  EXPECT_EQ(sol.validate(inst), "");
}

TEST(ReduceLp, RejectsMalformedInstances) {
  auto inst = platform::fig6_triangle();
  auto bad = inst;
  bad.participants.clear();
  EXPECT_THROW(solve_reduce(bad), std::invalid_argument);
  bad = inst;
  bad.participants.push_back(bad.participants[0]);
  EXPECT_THROW(solve_reduce(bad), std::invalid_argument);
  bad = inst;
  bad.task_work = R("0");
  EXPECT_THROW(solve_reduce(bad), std::invalid_argument);
  bad = inst;
  bad.target = 99;
  EXPECT_THROW(solve_reduce(bad), std::invalid_argument);
  // A repeated compute node would get a second compute row and a second
  // copy of every merge column.
  ReduceLpOptions dup;
  dup.compute_nodes = {inst.participants[0], inst.participants[0]};
  EXPECT_THROW(solve_reduce(inst, dup), std::invalid_argument);
  EXPECT_THROW((void)build_reduce_lp(inst, dup), std::invalid_argument);
}

TEST(ReduceLp, TargetNeedNotParticipate) {
  // Pure sink target that holds no value: P0, P1 reduce toward router-like
  // T with no compute capability.
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1"));
  auto t = b.add_node("T", R("1"));
  b.add_link(p0, p1, R("1"));
  b.add_link(p1, t, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = t;
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_GT(sol.throughput, R("0"));
  EXPECT_EQ(sol.validate(inst), "");
}

TEST(ReduceLp, DegenerateInstanceCertifiesWithoutExactFallback) {
  // Regression: this instance's optimal vertex is heavily degenerate; the
  // certificate must come from one of the float-warm-started stages
  // (reconstruction, or basis verification when the vertex denominators
  // exceed float-reconstruction range), never from the (hours-slow)
  // exact-simplex fallback. Which of the two float stages lands depends on
  // the vertex the engine picks — equilibration moved this instance from
  // basis verification to plain reconstruction.
  auto inst = testing::random_reduce_instance(44, 9, 6);
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_EQ(sol.throughput, R("3/4"));
  EXPECT_TRUE(sol.certified);
  EXPECT_TRUE(sol.lp_method == "double+certificate" ||
              sol.lp_method == "double+basis-verification")
      << sol.lp_method;
  EXPECT_EQ(sol.validate(inst), "");
}

class ReduceLpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReduceLpPropertyTest, ValidatesAndDominatesEveryBaselineTree) {
  auto inst = testing::random_reduce_instance(GetParam(), 7, 4);
  ReduceSolution sol = solve_reduce(inst);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.validate(inst), "");
  EXPECT_GT(sol.throughput, R("0"));
  for (auto tree :
       {baselines::flat_reduce_tree(inst), baselines::chain_reduce_tree(inst),
        baselines::binomial_reduce_tree(inst)}) {
    EXPECT_EQ(tree.validate(inst), "");
    EXPECT_GE(sol.throughput, baselines::single_tree_throughput(inst, tree));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPlatforms, ReduceLpPropertyTest,
                         ::testing::Values(3, 6, 9, 12, 15, 18));

}  // namespace
}  // namespace ssco::core
