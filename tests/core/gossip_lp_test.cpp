#include "core/gossip_lp.h"

#include <gtest/gtest.h>

#include "baselines/gossip_baseline.h"
#include "graph/generators.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

platform::GossipInstance complete_uniform(std::size_t n,
                                          const Rational& cost) {
  platform::GossipInstance inst;
  graph::Digraph g = graph::complete(n);
  std::vector<Rational> costs(g.num_edges(), cost);
  std::vector<Rational> speeds(n, Rational(1));
  inst.platform = platform::Platform(std::move(g), std::move(costs),
                                     std::move(speeds));
  for (graph::NodeId i = 0; i < n; ++i) {
    inst.sources.push_back(i);
    inst.targets.push_back(i);
  }
  return inst;
}

TEST(GossipLp, CompleteUniformAllToAll) {
  // n nodes, all-to-all on a complete graph with cost c: every node must
  // emit n-1 messages per operation; out-port busy (n-1)c -> TP = 1/((n-1)c).
  for (std::size_t n : {3u, 4u, 5u}) {
    auto inst = complete_uniform(n, R("1/2"));
    MultiFlow flow = solve_gossip(inst);
    EXPECT_EQ(flow.throughput,
              Rational(2, static_cast<std::int64_t>(n - 1)))
        << "n = " << n;
    EXPECT_EQ(flow.validate(inst.platform), "");
    EXPECT_EQ(flow.commodities.size(), n * (n - 1));
  }
}

TEST(GossipLp, SelfPairsAreSkipped) {
  auto inst = complete_uniform(3, R("1"));
  MultiFlow flow = solve_gossip(inst);
  for (const CommodityFlow& c : flow.commodities) {
    EXPECT_NE(c.origin, c.destination);
  }
}

TEST(GossipLp, AsymmetricRolesSubsetSourcesTargets) {
  // Two sources, three disjoint targets on a complete graph: each source
  // emits 3 messages per op.
  platform::GossipInstance inst;
  graph::Digraph g = graph::complete(5);
  std::vector<Rational> costs(g.num_edges(), R("1"));
  std::vector<Rational> speeds(5, Rational(1));
  inst.platform =
      platform::Platform(std::move(g), std::move(costs), std::move(speeds));
  inst.sources = {0, 1};
  inst.targets = {2, 3, 4};
  MultiFlow flow = solve_gossip(inst);
  EXPECT_EQ(flow.commodities.size(), 6u);
  // Each target receives 2 messages per op (cost 1 each): in-port busy 2
  // -> TP <= 1/2. Each source emits 3 -> TP <= 1/3. Relaying can't beat the
  // source's own out-port.
  EXPECT_EQ(flow.throughput, R("1/3"));
  EXPECT_EQ(flow.validate(inst.platform), "");
}

TEST(GossipLp, RingUsesBothDirections) {
  // 4-ring all-to-all: the LP may split opposite-corner traffic across both
  // ring directions. Sanity: it validates and beats/meets shortest paths.
  platform::GossipInstance inst;
  graph::Digraph g = graph::ring(4);
  std::vector<Rational> costs(g.num_edges(), R("1"));
  std::vector<Rational> speeds(4, Rational(1));
  inst.platform =
      platform::Platform(std::move(g), std::move(costs), std::move(speeds));
  for (graph::NodeId i = 0; i < 4; ++i) {
    inst.sources.push_back(i);
    inst.targets.push_back(i);
  }
  MultiFlow flow = solve_gossip(inst);
  auto baseline = baselines::gossip_shortest_path(inst);
  EXPECT_EQ(flow.validate(inst.platform), "");
  EXPECT_GE(flow.throughput, baseline.throughput);
  EXPECT_GT(flow.throughput, R("0"));
}

TEST(GossipLp, RejectsMalformedInstances) {
  auto inst = complete_uniform(3, R("1"));
  auto bad = inst;
  bad.sources.clear();
  EXPECT_THROW(solve_gossip(bad), std::invalid_argument);
  bad = inst;
  bad.sources.push_back(bad.sources[0]);
  EXPECT_THROW(solve_gossip(bad), std::invalid_argument);
  bad = inst;
  bad.message_size = R("-1");
  EXPECT_THROW(solve_gossip(bad), std::invalid_argument);
  // No pair with source != target: the LP would hold only TP (unbounded).
  bad = inst;
  bad.sources = {2};
  bad.targets = {2};
  EXPECT_THROW(solve_gossip(bad), std::invalid_argument);
}

class GossipLpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GossipLpPropertyTest, ValidatesAndDominatesBaseline) {
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(GetParam(), 7);
  inst.sources = {0, 1, 2};
  inst.targets = {4, 5, 6};
  MultiFlow flow = solve_gossip(inst);
  EXPECT_TRUE(flow.certified);
  EXPECT_EQ(flow.validate(inst.platform), "");
  auto baseline = baselines::gossip_shortest_path(inst);
  EXPECT_GE(flow.throughput, baseline.throughput);
}

INSTANTIATE_TEST_SUITE_P(RandomPlatforms, GossipLpPropertyTest,
                         ::testing::Values(2, 4, 6, 10, 12));

}  // namespace
}  // namespace ssco::core
