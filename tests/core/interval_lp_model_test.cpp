// Pins the dense reduce-family models. For build_reduce_lp and
// build_prefix_lp on a fixed instance sweep, four facts are frozen: an
// FNV-1a digest of the LP text, a digest of the variable-name sequence, the
// exact optimal throughput and the pivot count of the dense solve. Any
// change to how the model is built that moves one row, column, coefficient
// or name shows up here; warm-start snapshots and the plan cache map bases
// by name, so names and order are part of the contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/prefix_lp.h"
#include "core/reduce_lp.h"
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

/// Instance 0 is the paper's Fig. 6 triangle; 1..18 are seeded random
/// platforms, seeds {1,2,3,7,11,23} x n {6,12,20}.
constexpr std::size_t kInstances = 19;

platform::ReduceInstance pinned_instance(std::size_t index) {
  if (index == 0) return platform::fig6_triangle();
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 7, 11, 23};
  constexpr std::size_t kNodes[] = {6, 12, 20};
  constexpr std::size_t kParticipants[] = {3, 4, 6};
  const std::size_t s = (index - 1) / 3;
  const std::size_t n = (index - 1) % 3;
  return testing::random_reduce_instance(kSeeds[s], kNodes[n],
                                         kParticipants[n]);
}

struct Pin {
  std::uint64_t lp_text;
  std::uint64_t var_names;
  const char* throughput;
  std::size_t pivots;
};

// Recorded from the hand-written dense builders this model definition
// replaced.
constexpr Pin kReducePins[kInstances] = {
    {0x9a9e50be8361fa1bull, 0xc49d42faaec0d9a8ull, "1", 15},
    {0x42e2fbf958d264beull, 0xa14a1932d7228fa6ull, "2/3", 54},
    {0x794b500fe00f97deull, 0xfd853c3039c50748ull, "1", 216},
    {0x7ec5d5dd10740b5eull, 0xb54db3a03291a119ull, "1", 954},
    {0x66b5c01904b45e13ull, 0x1e163545438510d0ull, "1/3", 33},
    {0xdb62f792d9388056ull, 0x1e4d1893246bbc87ull, "3/4", 122},
    {0xd1087608a17ca212ull, 0x308ab357f7f12350ull, "9/5", 1811},
    {0xe1d7b2fcd00af41aull, 0xc0d88bddad33ab85ull, "1/2", 30},
    {0xecedc458039a84ceull, 0x5b64ebafd1bcc0edull, "191/204", 247},
    {0xc9bb4730369e712bull, 0xfcfeb028bffaa2f7ull, "1", 1314},
    {0xe47341fcc802c839ull, 0x02feab06ccec24caull, "6/17", 31},
    {0x65a5faf2adb3bf80ull, 0x16bddbd6304cb48full, "2/3", 159},
    {0x36a5c0ba66c799f2ull, 0x4fe267990be97461ull,
     "9433030647851/5505325523038", 3555},
    {0x12c832808f65293full, 0x3a840ade7645e3e9ull, "3/4", 49},
    {0x42f2d7dc0a8ae7c2ull, 0x9deb9284c5d44076ull, "1", 114},
    {0x755ae157c211bcd2ull, 0x8aae9470234764adull, "2/3", 795},
    {0x1ba4c1af702e59b0ull, 0xf559c294bbad2399ull, "1/3", 25},
    {0x37bac3c6455cd920ull, 0x04cd3221f81d909bull, "1", 199},
    {0x637a5d13daaa3ffdull, 0x6bccf6cdf8367ef5ull, "1", 960},
};

constexpr Pin kPrefixPins[kInstances] = {
    {0x6599c4a298b7e3a4ull, 0xbf80452a6518a168ull, "1/2", 12},
    {0xcf10323a30844078ull, 0xe227621a4f82ceecull, "1/3", 42},
    {0x00908a03bf4cf5e2ull, 0x8a8a4358d4734cb4ull, "4/9", 258},
    {0xc2e5e8082351fbd6ull, 0xaa8eada1fd2b1993ull, "1/5", 761},
    {0x2d3bb2997b5c87ecull, 0x173444108e8f3ffaull, "1/3", 38},
    {0xeb69854a7b046e63ull, 0x76864ef0f0fb2d4bull, "3/8", 136},
    {0xea7ed3cecf16351aull, 0x65408ffbff9082daull, "9/20", 1986},
    {0x6a48b78c0f98b982ull, 0x89b4096789bb21cbull, "7/18", 34},
    {0x33cfe364786966ecull, 0xf50e3926b9d85649ull, "12/25", 218},
    {0x1dca6779bffa4d89ull, 0xef7f15adb77042d1ull, "1/5", 754},
    {0xa15c599bacc0657dull, 0x42f0ca1292fe2c30ull, "3/13", 28},
    {0x09e67fdd76aaf518ull, 0x09e93265a98644f3ull, "1/3", 394},
    {0x24b7ba3aac785c94ull, 0x461a7905bbf76afbull, "2/5", 1578},
    {0x510fe86804a45b8dull, 0x90bc310d6e541e9full, "2911/4610", 50},
    {0x22fae470474b188aull, 0x6ab738477146989aull, "1/3", 136},
    {0xf85bfca061737c42ull, 0x5b5c89934e8e7ad7ull, "4/15", 1558},
    {0xab0605fa0f39e018ull, 0x88bed2d5491f48cfull, "2/9", 44},
    {0x63efd5206b2fa0a2ull, 0xcd31feed199b018full, "5/8", 478},
    {0xe6e772f4fcf10d85ull, 0x04f95e75d72e1fdfull, "1/5", 581},
};

void expect_pinned(const lp::Model& model, const ReduceSolution& dense,
                   const Pin& pin) {
  EXPECT_EQ(fnv1a(kFnvBasis, lp::to_lp_string(model)), pin.lp_text);
  std::uint64_t names = kFnvBasis;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    names = fnv1a(names, model.variable_name(lp::VarId{j}));
    names = fnv1a(names, "\n");
  }
  EXPECT_EQ(names, pin.var_names);
  EXPECT_TRUE(dense.certified);
  EXPECT_EQ(dense.throughput, testing::R(pin.throughput));
  EXPECT_EQ(dense.lp_pivots, pin.pivots);
}

TEST(IntervalLpModel, ReduceModelsPinned) {
  for (std::size_t i = 0; i < kInstances; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    const auto inst = pinned_instance(i);
    ReduceLpOptions options;
    options.colgen = ColGenMode::kNever;
    expect_pinned(build_reduce_lp(inst, options), solve_reduce(inst, options),
                  kReducePins[i]);
  }
}

TEST(IntervalLpModel, PrefixModelsPinned) {
  for (std::size_t i = 0; i < kInstances; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    const auto inst = pinned_instance(i);
    PrefixLpOptions options;
    options.colgen = ColGenMode::kNever;
    expect_pinned(build_prefix_lp(inst, options), solve_prefix(inst, options),
                  kPrefixPins[i]);
  }
}

}  // namespace
}  // namespace ssco::core
