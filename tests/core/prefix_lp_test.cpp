#include "core/prefix_lp.h"

#include <gtest/gtest.h>

#include "core/reduce_lp.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

TEST(PrefixLp, TwoNodesManualValue) {
  // P0 --(c=1)--> P1: prefixes are v[0,0] (already on P0) and v[0,1] needed
  // on P1. Per op: ship v[0,0] to P1 (or merge on P0 — but v[1,1] lives on
  // P1...). Cheapest: v[0,0] -> P1, merge there. Ports: one message each
  // way of the link per op -> TP = 1.
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1"));
  b.add_link(p0, p1, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = p1;
  ReduceSolution sol = solve_prefix(inst);
  EXPECT_EQ(sol.throughput, R("1"));
  EXPECT_EQ(validate_prefix(inst, sol), "");
  EXPECT_TRUE(sol.certified);
}

TEST(PrefixLp, PrefixNeverBeatsPlainReduceToLastParticipant) {
  // A prefix solution delivers v[0,N-1] to participants.back() among its
  // other obligations, so TP_prefix <= TP_reduce with that target.
  for (std::uint64_t seed : {2, 5, 11}) {
    auto inst = testing::random_reduce_instance(seed, 6, 3);
    inst.target = inst.participants.back();
    ReduceSolution reduce_sol = solve_reduce(inst);
    ReduceSolution prefix_sol = solve_prefix(inst);
    EXPECT_LE(prefix_sol.throughput, reduce_sol.throughput) << "seed " << seed;
    EXPECT_EQ(validate_prefix(inst, prefix_sol), "") << "seed " << seed;
  }
}

TEST(PrefixLp, ThreeNodeChainDemandsIntermediatePrefix) {
  // Chain 0 - 1 - 2 in rank order. Beyond the reduce traffic, v[0,1] must
  // ALSO be delivered (kept) at P1. TP stays 1 here: P1 merges v[0,1]
  // locally (one copy absorbed, one merged onward after receiving v[0,0]
  // once... no — each op needs v[0,0] once at P1: one in-message; P1 sends
  // v[0,1] or v[0,0] onward: out <= 1. Feasible at rate... P1 needs 2
  // copies of v[0,1] per op? No: one absorbed at P1 (demand), one used to
  // build v[0,2] at P2 — so P1 computes T(0,0,1) twice per op or forwards
  // differently. P1 in: v[0,0] x1 (reusable? NO — each copy is consumed
  // once). Two copies of v[0,1] need two copies of v[0,0] at P1: in-port
  // busy 2 per op -> TP <= 1/2.
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
  ReduceSolution sol = solve_prefix(inst);
  EXPECT_EQ(sol.throughput, R("1/2"));
  EXPECT_EQ(validate_prefix(inst, sol), "");
}

TEST(PrefixLp, ValidatePrefixCatchesTampering) {
  platform::PlatformBuilder b;
  auto p0 = b.add_node("P0", R("1"));
  auto p1 = b.add_node("P1", R("1"));
  b.add_link(p0, p1, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0, p1};
  inst.target = p1;
  ReduceSolution sol = solve_prefix(inst);
  ASSERT_EQ(validate_prefix(inst, sol), "");
  ReduceSolution broken = sol;
  broken.throughput += R("1/7");
  EXPECT_NE(validate_prefix(inst, broken), "");
}

TEST(PrefixLp, RejectsSingleParticipant) {
  platform::PlatformBuilder b;
  auto p0 = b.add_node();
  auto p1 = b.add_node();
  b.add_link(p0, p1, R("1"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {p0};
  inst.target = p1;
  EXPECT_THROW(solve_prefix(inst), std::invalid_argument);
}

TEST(PrefixLp, RejectsDuplicateComputeNode) {
  auto inst = testing::random_reduce_instance(3, 6, 3);
  PrefixLpOptions dup;
  dup.compute_nodes = {inst.participants[1], inst.participants[1]};
  EXPECT_THROW(solve_prefix(inst, dup), std::invalid_argument);
  EXPECT_THROW((void)build_prefix_lp(inst, dup), std::invalid_argument);
}

TEST(PrefixLp, ReportsPhaseTimesDenseAndColgen) {
  const auto inst = testing::random_reduce_instance(7, 8, 4);
  for (ColGenMode mode : {ColGenMode::kNever, ColGenMode::kAlways}) {
    PrefixLpOptions options;
    options.colgen = mode;
    const ReduceSolution sol = solve_prefix(inst, options);
    const lp::SolvePhaseTimes& t = sol.lp_phase_times;
    EXPECT_GT(t.ftran_ns + t.btran_ns + t.pricing_ns + t.factor_ns +
                  t.certify_ns + t.pricing_sweep_ns,
              0u)
        << "mode " << static_cast<int>(mode);
  }
}

class PrefixLpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixLpPropertyTest, SolutionValidates) {
  auto inst = testing::random_reduce_instance(GetParam(), 6, 3);
  inst.target = inst.participants.back();
  ReduceSolution sol = solve_prefix(inst);
  EXPECT_TRUE(sol.certified);
  EXPECT_GT(sol.throughput, R("0"));
  EXPECT_EQ(validate_prefix(inst, sol), "");
}

INSTANTIATE_TEST_SUITE_P(RandomPlatforms, PrefixLpPropertyTest,
                         ::testing::Values(1, 4, 7, 10));

}  // namespace
}  // namespace ssco::core
