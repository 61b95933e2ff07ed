// Fingerprint unit tests: isomorphism stability (node relabeling and edge
// reordering must not move the digest), sensitivity (costs, speeds, roles,
// topology and sizes must), structure/full separation for the warm path,
// and collision sanity over a family of random platforms.

#include "platform/fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "platform/delta.h"
#include "testing/util.h"

namespace ssco::platform {
namespace {

using graph::EdgeId;
using graph::NodeId;
using num::Rational;
using testing::random_platform;
using testing::random_scatter_instance;

/// Rebuilds `p` with node ids permuted (`new_of[old]`) and the edge list
/// reversed, i.e. an isomorphic copy whose every identifier differs.
Platform relabel(const Platform& p, const std::vector<NodeId>& new_of) {
  const std::size_t n = p.num_nodes();
  graph::Digraph g(n);
  std::vector<Rational> costs;
  costs.reserve(p.num_edges());
  for (std::size_t i = p.num_edges(); i-- > 0;) {
    const auto& e = p.graph().edge(i);
    g.add_edge(new_of[e.src], new_of[e.dst]);
    costs.push_back(p.edge_cost(i));
  }
  std::vector<Rational> speeds(n, Rational(1));
  for (NodeId v = 0; v < n; ++v) speeds[new_of[v]] = p.node_speed(v);
  return Platform(std::move(g), std::move(costs), std::move(speeds));
}

std::vector<NodeId> relabel(const std::vector<NodeId>& nodes,
                            const std::vector<NodeId>& new_of) {
  std::vector<NodeId> out;
  for (NodeId v : nodes) out.push_back(new_of[v]);
  return out;
}

// The same instance on relabel(platform, new_of), roles following the nodes.
ScatterInstance relabel(const ScatterInstance& a,
                        const std::vector<NodeId>& new_of) {
  ScatterInstance b = a;
  b.platform = relabel(a.platform, new_of);
  b.source = new_of[a.source];
  b.targets = relabel(a.targets, new_of);
  return b;
}

GossipInstance relabel(const GossipInstance& a,
                       const std::vector<NodeId>& new_of) {
  GossipInstance b = a;
  b.platform = relabel(a.platform, new_of);
  b.sources = relabel(a.sources, new_of);
  b.targets = relabel(a.targets, new_of);
  return b;
}

ReduceInstance relabel(const ReduceInstance& a,
                       const std::vector<NodeId>& new_of) {
  ReduceInstance b = a;
  b.platform = relabel(a.platform, new_of);
  b.participants = relabel(a.participants, new_of);
  b.target = new_of[a.target];
  return b;
}

std::vector<NodeId> rotation(std::size_t n, std::size_t shift) {
  std::vector<NodeId> new_of(n);
  for (NodeId v = 0; v < n; ++v) new_of[v] = (v + shift) % n;
  return new_of;
}

TEST(FingerprintTest, RelabeledPlatformFingerprintsIdentically) {
  for (std::uint64_t seed : {7u, 21u, 99u}) {
    const ScatterInstance a = random_scatter_instance(seed, 12, 5);
    EXPECT_EQ(fingerprint(a), fingerprint(relabel(a, rotation(12, 5))))
        << "seed " << seed;

    const ReduceInstance r = testing::random_reduce_instance(seed, 12, 4);
    EXPECT_EQ(fingerprint(r), fingerprint(relabel(r, rotation(12, 7))))
        << "reduce seed " << seed;

    GossipInstance g;
    g.platform = random_platform(seed, 12);
    g.sources = {0, 1};
    g.targets = {9, 10, 11};
    EXPECT_EQ(fingerprint(g), fingerprint(relabel(g, rotation(12, 4))))
        << "gossip seed " << seed;

    // The service benchmark's drifting shape: dense n=32, 16 targets.
    const ScatterInstance dense = random_scatter_instance(seed, 32, 16);
    EXPECT_EQ(fingerprint(dense),
              fingerprint(relabel(dense, rotation(32, 13))))
        << "n=32 seed " << seed;
  }
}

TEST(FingerprintTest, RoleRelabelingMustFollowTheNodes) {
  // Permuting the platform but NOT the roles is a different problem.
  ScatterInstance a = random_scatter_instance(5, 10, 4);
  ScatterInstance b = a;
  b.platform = relabel(a.platform, rotation(10, 3));
  EXPECT_NE(fingerprint(a).full, fingerprint(b).full);
}

TEST(FingerprintTest, CostDriftMovesFullKeepsStructure) {
  ScatterInstance a = random_scatter_instance(11, 10, 4);
  ScatterInstance b = a;
  // Drift one edge cost by 5%.
  std::vector<Rational> costs = a.platform.edge_costs();
  PlatformDelta delta;
  delta.cost_changes.push_back({0, costs[0] * Rational(21, 20)});
  b.platform = apply_delta(a.platform, delta).platform;
  const Fingerprint fa = fingerprint(a);
  const Fingerprint fb = fingerprint(b);
  EXPECT_NE(fa.full, fb.full);
  EXPECT_EQ(fa.structure, fb.structure);
  EXPECT_TRUE(same_shape(a.platform, b.platform));
  EXPECT_FALSE(same_platform(a.platform, b.platform));
}

TEST(FingerprintTest, SpeedChangeMovesFullKeepsStructure) {
  ScatterInstance a = random_scatter_instance(13, 10, 4);
  ScatterInstance b = a;
  PlatformDelta delta;
  delta.speed_changes.push_back({3, a.platform.node_speed(3) + Rational(1)});
  b.platform = apply_delta(a.platform, delta).platform;
  EXPECT_NE(fingerprint(a).full, fingerprint(b).full);
  EXPECT_EQ(fingerprint(a).structure, fingerprint(b).structure);
}

TEST(FingerprintTest, TopologyChangeMovesBothDigests) {
  ScatterInstance a = random_scatter_instance(17, 10, 4);
  ScatterInstance b = a;
  // Add an edge between two previously unlinked nodes.
  bool added = false;
  for (NodeId u = 0; u < 10 && !added; ++u) {
    for (NodeId v = 0; v < 10 && !added; ++v) {
      if (u == v || a.platform.graph().has_edge(u, v)) continue;
      PlatformDelta delta;
      delta.edge_adds.push_back({u, v, Rational(1)});
      b.platform = apply_delta(a.platform, delta).platform;
      added = true;
    }
  }
  ASSERT_TRUE(added);
  EXPECT_NE(fingerprint(a).full, fingerprint(b).full);
  EXPECT_NE(fingerprint(a).structure, fingerprint(b).structure);
  EXPECT_FALSE(same_shape(a.platform, b.platform));
}

TEST(FingerprintTest, RolesAndSizesAreLoadBearing) {
  ScatterInstance a = random_scatter_instance(23, 10, 4);

  ScatterInstance other_source = a;
  other_source.source = 1;
  EXPECT_NE(fingerprint(a).full, fingerprint(other_source).full);
  EXPECT_NE(fingerprint(a).structure, fingerprint(other_source).structure);

  ScatterInstance reordered = a;
  std::swap(reordered.targets[0], reordered.targets[1]);
  EXPECT_NE(fingerprint(a).full, fingerprint(reordered).full);

  ScatterInstance resized = a;
  resized.message_size = Rational(2);
  EXPECT_NE(fingerprint(a).full, fingerprint(resized).full);
  // Message size is metric, not structure: warm-start still applies.
  EXPECT_EQ(fingerprint(a).structure, fingerprint(resized).structure);
}

TEST(FingerprintTest, OperationsSeparateOnTheSamePlatform) {
  Platform p = random_platform(31, 10);
  ScatterInstance s;
  s.platform = p;
  s.source = 0;
  s.targets = {8, 9};
  ReduceInstance r;
  r.platform = p;
  r.participants = {8, 9};
  r.target = 9;
  GossipInstance g;
  g.platform = p;
  g.sources = {0};
  g.targets = {8, 9};
  const std::set<std::uint64_t> fps = {fingerprint(s).full,
                                       fingerprint(r).full,
                                       fingerprint(g).full};
  EXPECT_EQ(fps.size(), 3u);
}

TEST(FingerprintTest, ReduceParticipantOrderIsLoadBearing) {
  // The paper's reduce operator is non-commutative; swapping the logical
  // order of two participants is a different problem.
  ReduceInstance a = testing::random_reduce_instance(37, 10, 4);
  ReduceInstance b = a;
  std::swap(b.participants[0], b.participants[1]);
  EXPECT_NE(fingerprint(a).full, fingerprint(b).full);
  EXPECT_FALSE(same_instance(a, b));
}

TEST(FingerprintTest, NoCollisionsAcrossRandomFamily) {
  std::set<std::uint64_t> full_digests;
  std::set<std::uint64_t> structure_digests;
  std::size_t count = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (std::size_t n : {8u, 12u, 32u}) {
      ScatterInstance inst = random_scatter_instance(seed, n, 3);
      const Fingerprint fp = fingerprint(inst);
      full_digests.insert(fp.full);
      structure_digests.insert(fp.structure);
      ++count;
    }
  }
  EXPECT_EQ(full_digests.size(), count);
  // Distinct random topologies must also separate structurally (same-seed
  // platforms differ in edges, not just costs).
  EXPECT_EQ(structure_digests.size(), count);
}

/// A 13-node path 0-1-...-12 with a pendant node hung off path node `at`;
/// unit costs and speeds.
Platform pendant_path(NodeId at) {
  graph::Digraph g(14);
  for (NodeId v = 0; v + 1 < 13; ++v) g.add_bidirectional(v, v + 1);
  g.add_bidirectional(at, 13);
  const std::size_t m = g.num_edges();
  return Platform(std::move(g), std::vector<Rational>(m, Rational(1)),
                  std::vector<Rational>(14, Rational(1)));
}

TEST(FingerprintTest, PendantPathPositionsSeparate) {
  // Only the distance from the branch node to the path's ends tells these
  // platforms apart, and it takes three rounds of refinement to see it: a
  // refinement stopped after one or two rounds merges adjacent positions.
  std::set<std::uint64_t> digests;
  for (NodeId at = 1; at <= 6; ++at) {
    const Fingerprint fp = fingerprint_platform(pendant_path(at));
    digests.insert(fp.full);
    digests.insert(fp.structure);
  }
  EXPECT_EQ(digests.size(), 12u);
  // Position 8 is position 4 seen from the other end of the path.
  EXPECT_EQ(fingerprint_platform(pendant_path(4)),
            fingerprint_platform(pendant_path(8)));
}

TEST(FingerprintTest, RoleIdsOutsideThePlatformAreRejected) {
  ScatterInstance bad_target = random_scatter_instance(43, 4, 2);
  bad_target.targets.back() = 40;
  try {
    (void)fingerprint(bad_target);
    ADD_FAILURE() << "out-of-range target fingerprinted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "scatter: bad target node");
  }
  EXPECT_THROW((void)fingerprint_platform(bad_target.platform, {1, 2}),
               std::invalid_argument);
}

TEST(FingerprintTest, DeterministicAcrossCalls) {
  ScatterInstance inst = random_scatter_instance(41, 12, 5);
  const Fingerprint first = fingerprint(inst);
  EXPECT_EQ(first, fingerprint(inst));
  EXPECT_TRUE(same_instance(inst, inst));
}

}  // namespace
}  // namespace ssco::platform
