#pragma once
// Isomorphism-stable platform fingerprints for plan caching.
//
// The plan service (src/service/) keys its cache on a 64-bit digest of the
// planning request: platform structure, edge costs, node speeds, role
// assignment and message sizes. Two digests are computed per request:
//
//  * `full`      — everything that determines the optimal plan. Two requests
//                  with equal `full` digests are (modulo a 2^-64 collision,
//                  which the cache guards against with an exact equality
//                  check) the same planning problem.
//  * `structure` — the digest with edge costs, node speeds and message sizes
//                  blanked out. It is stable across the metric drift of a
//                  live platform (bandwidth/speed changes), so a cached plan
//                  whose `structure` matches a request is a warm-start
//                  candidate: same LP shape and names, different numbers —
//                  exactly what lp/warm_start.h re-solves incrementally.
//
// Both digests are ISOMORPHISM-STABLE: node ids and edge insertion order do
// not enter the hash (node NAMES are also excluded — they commonly encode
// ids). Instead a Weisfeiler-Leman color refinement assigns each node a
// label-independent color from its role, metrics and neighborhood, and the
// digest folds the multiset of node colors and edge signatures. A relabeled
// copy of a platform (with correspondingly relabeled roles) therefore
// fingerprints identically, while any change to topology, roles, or (for
// `full`) metrics moves the digest.
//
// One refinement yields both digests, and it is nearly all the cost of an
// exact cache hit. It hashes each cost and speed once and walks one neighbor
// CSR per round for both colorings. A node's neighbor multiset is folded as
// a sum of mixed (color ^ arc tag) terms, so nothing is sorted. Each coloring
// stops at the first round that adds no color class: the partition is then
// stable and further rounds cannot separate more nodes. The round count is
// capped at max(4, bit_width(n + 1) + 1) and folded into the digest. On the
// dense n=32, 16-target scatter platforms the service benchmark drifts, the
// partition is stable after one round, and one digest costs about 0.02 ms.
//
// The request overloads validate role ids: an id outside the platform
// throws std::invalid_argument, worded like the solvers' instance checks.

#include <cstdint>
#include <vector>

#include "platform/paper_instances.h"
#include "platform/platform.h"

namespace ssco::platform {

struct Fingerprint {
  /// Digest of the complete planning problem (see file comment).
  std::uint64_t full = 0;
  /// Metric-blind digest: topology + roles only. Equal `structure` with
  /// different `full` means "same shape, drifted numbers" — a warm hit.
  std::uint64_t structure = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Fingerprints a bare platform. `role_seed` (optional, per-node) folds the
/// caller's role assignment into the initial node colors; nodes with seed 0
/// are unmarked. Two isomorphic platforms with correspondingly permuted
/// seeds fingerprint identically.
[[nodiscard]] Fingerprint fingerprint_platform(
    const Platform& platform,
    const std::vector<std::uint64_t>& role_seed = {});

/// Request fingerprints: platform + roles + (full only) message sizes.
/// Scatter targets, gossip sources/targets and reduce participants are
/// seeded with their LIST POSITION — the paper's reduce operator is
/// non-commutative, and scatter/gossip commodity order is part of the plan.
[[nodiscard]] Fingerprint fingerprint(const ScatterInstance& instance);
[[nodiscard]] Fingerprint fingerprint(const GossipInstance& instance);
[[nodiscard]] Fingerprint fingerprint(const ReduceInstance& instance);

/// Exact shape identity under the IDENTITY node mapping: same node count,
/// same names, same edge list (same src/dst per EdgeId). Costs and speeds
/// are free. This is the precondition for serving a request from a cached
/// basis: the LP builders name every row and variable on node names
/// (core/lp_names.h), so same shape == same LP names == a basis that maps
/// one-to-one.
[[nodiscard]] bool same_shape(const Platform& a, const Platform& b);

/// same_shape plus exact metric equality (costs and speeds).
[[nodiscard]] bool same_platform(const Platform& a, const Platform& b);

/// Full request identity: same_platform + identical roles and sizes. The
/// cache's collision guard for exact hits.
[[nodiscard]] bool same_instance(const ScatterInstance& a,
                                 const ScatterInstance& b);
[[nodiscard]] bool same_instance(const GossipInstance& a,
                                 const GossipInstance& b);
[[nodiscard]] bool same_instance(const ReduceInstance& a,
                                 const ReduceInstance& b);

}  // namespace ssco::platform
