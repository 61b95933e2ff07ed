// Pins the flow-family models: scatter (SSSP), gossip (SSPA2A) and gather.
// For build_scatter_lp and build_gossip_lp on a fixed instance sweep, four
// facts are frozen: an FNV-1a digest of the LP text, a digest of the
// variable-name sequence, the exact optimal throughput and the pivot count of
// the solve. Any change to how the model is built that moves one row,
// column, coefficient or name shows up here; warm-start snapshots and the
// plan cache map bases by name, so names and order are part of the contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/gather_lp.h"
#include "core/gossip_lp.h"
#include "core/scatter_lp.h"
#include "lp/lp_writer.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 7, 11, 23};
constexpr std::size_t kNodes[] = {6, 12, 20};
/// Seeded instances per family: kSeeds x kNodes, seed-major.
constexpr std::size_t kSeeded = 18;

std::uint64_t seed_of(std::size_t index) { return kSeeds[index / 3]; }
std::size_t nodes_of(std::size_t index) { return kNodes[index % 3]; }

/// Instance 0 is the paper's Fig. 2 toy; 1..18 are seeded random platforms
/// where node 0 scatters to the last n/2 nodes.
platform::ScatterInstance pinned_scatter(std::size_t index) {
  if (index == 0) return platform::fig2_toy();
  const std::size_t n = nodes_of(index - 1);
  return testing::random_scatter_instance(seed_of(index - 1), n, n / 2);
}

/// Sources {0,1,2} to targets {n-1, n-2, 1}: node 1 is both a source and a
/// target, so the skipped (1 -> 1) pair is part of the pin.
platform::GossipInstance pinned_gossip(std::size_t index) {
  const std::size_t n = nodes_of(index);
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(seed_of(index), n);
  inst.sources = {0, 1, 2};
  inst.targets = {n - 1, n - 2, 1};
  return inst;
}

/// Sources {0,1,2} to the sink n-1, as the gossip instance solve_gather
/// delegates to.
platform::GossipInstance pinned_gather(std::size_t index) {
  const std::size_t n = nodes_of(index);
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(seed_of(index), n);
  inst.sources = {0, 1, 2};
  inst.targets = {n - 1};
  return inst;
}

struct Pin {
  std::uint64_t lp_text;
  std::uint64_t var_names;
  const char* throughput;
  std::size_t pivots;
};

// Recorded from the separate scatter and gossip builders that the shared
// flow builder replaced. Nine pivot counts (scatter 4, 5, 8, 10, 16;
// gossip 0, 9, 15; gather 9) were re-recorded when cold solves began
// running the float pass on the model as built, without reductions.
constexpr Pin kScatterPins[kSeeded + 1] = {
    {0x80181e4e114289f1ull, 0x1683d5c05e23648eull, "1/2", 6},
    {0xe0ff22e0318f0f51ull, 0x8f27cee97bcd2d0cull, "12/19", 7},
    {0x37035f0db82eb894ull, 0xffd785fe3c4f8df7ull, "657/2782", 113},
    {0xa42d16c23ea1c33aull, 0x38b39221256f30d6ull, "1/10", 201},
    {0x8f7f09f5f41fb633ull, 0x94df1f3ad080132dull, "2/9", 17},
    {0xd0cc02d9d68c5b85ull, 0xb5e18f7f724f8a45ull, "2/9", 71},
    {0x84c4c2a6164b3621ull, 0x44c686d5fc031cc0ull, "1/5", 199},
    {0x5a4c60a30c75c1e8ull, 0xbcbd00d77a18bd0bull, "1/2", 16},
    {0x92b8f02d762c2cf8ull, 0x3c81461e0df3c4d3ull, "1/4", 74},
    {0x98bd12bc076d25c5ull, 0x324d673c68496385ull, "3/10", 251},
    {0xc211d81625c82b12ull, 0xbbbdf058520e3f67ull, "2/9", 10},
    {0xb8245115a4114426ull, 0x579a0717fe07ae23ull, "307/628", 125},
    {0x51abf58e33f916b6ull, 0x2c3c8a8bed76ea29ull, "22/117", 231},
    {0xa95bbb61df7bc613ull, 0xd511372b03781483ull, "62/111", 15},
    {0x9454f58729f99484ull, 0xeb11bb239efe8d94ull, "2407/7234", 127},
    {0x749c258f55c0cb12ull, 0x614cfb1834261e3dull, "89/296", 229},
    {0xbfad44889929061aull, 0x703a0649e10973eeull, "1/6", 17},
    {0x5e6f1223079badd7ull, 0x83ad5c0274cfd052ull, "300/653", 100},
    {0x538e20078a310ed9ull, 0x057658f0d60e90f0ull, "1/5", 234},
};

constexpr Pin kGossipPins[kSeeded] = {
    {0x2b31b8b48ce2c26bull, 0x6a4be01a8d0f0612ull, "42/167", 24},
    {0x33c35ea6aa2f5da3ull, 0x6ee3f6dc8c6d56e7ull, "1/3", 89},
    {0x0533bde6e480f6f1ull, 0x4ecf6d63af32d6cdull, "11/37", 218},
    {0xa94586cf8f07bf27ull, 0x19dad803a9387fffull, "1/9", 25},
    {0x28be92ff4a13bc64ull, 0x7e262a1885fd4be9ull, "443/1429", 123},
    {0xd1d52a828474cbabull, 0x9db8a778a9da42daull, "9/20", 233},
    {0xbf03564a889c1e96ull, 0x83721cb89ddeac0bull, "1/14", 31},
    {0x378f4ddc6913d946ull, 0xea23aacf45cf2257ull, "11565/35389", 127},
    {0x571d253e9c877f4aull, 0xf2e24e18345c8268ull, "1/3", 226},
    {0x9f8c8d03442ddb3bull, 0xa5574a06b6372bd0ull, "1/9", 31},
    {0x45b481f1840fa482ull, 0x804e9e74e9cccaa5ull, "1/3", 92},
    {0x52b61bde4124aaeaull, 0xdc7cec7188f8d3f6ull, "148645483/247197066", 572},
    {0xef943e0f9c66a3bcull, 0x974e19643a36558aull, "3/14", 35},
    {0x9fd5873e31bd6d8full, 0x9efbd49d9ab09f8full, "4/15", 96},
    {0x9c66ce00b618b079ull, 0xc00106aaebc34b0bull, "2/9", 79},
    {0x26bac36f3b237bf5ull, 0x117fc232e4575a19ull, "1/10", 36},
    {0x58cf434ca8dc7f49ull, 0xa38dca3147ba75a7ull, "3/10", 83},
    {0x2a75b88c6804a5c0ull, 0x6dee4850d40c2b76ull, "2522/4117", 432},
};

constexpr Pin kGatherPins[kSeeded] = {
    {0xaf220894404fcf7full, 0xcbb08aaa54d194e5ull, "4/9", 7},
    {0xcfe7013d90c7ed39ull, 0x5a23383817c6d996ull, "1/3", 36},
    {0x464f2df421182085ull, 0xaf0f4a2c1e9abac1ull, "191/219", 222},
    {0x072d6fc6b4530f9eull, 0x56fadd64c1f1a45full, "1/9", 11},
    {0xa46de87e91b133f7ull, 0x2b470508d66447dbull, "13663/16175", 52},
    {0x0018328a27932201ull, 0x2043c8a943a34464ull, "2/3", 90},
    {0x4932d5be63f8450aull, 0xebffdf1c1dd3b2b5ull, "1/6", 9},
    {0x4c57d7c2e7097c11ull, 0x8c56594794fbc3f9ull, "1/2", 65},
    {0x22143999577bb519ull, 0xaa1d7954754c9264ull, "11/15", 114},
    {0xbef2db01aa16744dull, 0x41a8bb04b0e73d04ull, "2/9", 12},
    {0x670b6b45c3c95d70ull, 0xd165de5ee6fa6d93ull, "1", 25},
    {0xf639f6884ab2f340ull, 0x319e7ff6d30e4e71ull, "11/12", 115},
    {0xf91ba72f7dfa7d5dull, 0x1f6d59f4b3c0f720ull, "1/4", 10},
    {0x34fa72cc977aefeeull, 0x180b7fea9ab9803full, "2/3", 26},
    {0x54262f299a262e3bull, 0x451985709e0b2840ull, "3/4", 25},
    {0xd56408804421bbb3ull, 0x3c101840a48930acull, "7/46", 16},
    {0xf94d485bd2724bc2ull, 0xa6ec3f187db30204ull, "1/3", 26},
    {0x3a08432323c4cbd9ull, 0x5b138d5eda8bb7d6ull, "128/135", 190},
};

void expect_pinned(const lp::Model& model, const MultiFlow& flow,
                   const Pin& pin) {
  EXPECT_EQ(fnv1a(kFnvBasis, lp::to_lp_string(model)), pin.lp_text);
  std::uint64_t names = kFnvBasis;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    names = fnv1a(names, model.variable_name(lp::VarId{j}));
    names = fnv1a(names, "\n");
  }
  EXPECT_EQ(names, pin.var_names);
  EXPECT_TRUE(flow.certified);
  EXPECT_EQ(flow.throughput, testing::R(pin.throughput));
  EXPECT_EQ(flow.lp_pivots, pin.pivots);
}

TEST(FlowLpModel, ScatterModelsPinned) {
  for (std::size_t i = 0; i <= kSeeded; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    const auto inst = pinned_scatter(i);
    expect_pinned(build_scatter_lp(inst), solve_scatter(inst),
                  kScatterPins[i]);
  }
}

TEST(FlowLpModel, GossipModelsPinned) {
  for (std::size_t i = 0; i < kSeeded; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    const auto inst = pinned_gossip(i);
    expect_pinned(build_gossip_lp(inst), solve_gossip(inst), kGossipPins[i]);
  }
}

TEST(FlowLpModel, GatherModelsPinned) {
  for (std::size_t i = 0; i < kSeeded; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    const auto inst = pinned_gather(i);
    expect_pinned(build_gossip_lp(inst),
                  solve_gather(inst.platform, inst.sources,
                               inst.targets.front(), inst.message_size),
                  kGatherPins[i]);
  }
}

}  // namespace
}  // namespace ssco::core
