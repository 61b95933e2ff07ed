#include "platform/fingerprint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace ssco::platform {

namespace {

// splitmix64 finalizer — the same bijective mixer graph/rng.h builds on.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Order-DEPENDENT combine; multisets are summed as mixed terms before they
// reach it, so the result is canonical.
std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix(h + 0x9e3779b97f4a7c15ull + v);
}

std::uint64_t hash_rational(const num::Rational& v) {
  // Rational::hash() is deterministic (FNV over limbs), so fingerprints are
  // stable across processes and runs.
  return mix(static_cast<std::uint64_t>(v.hash()) + 0xa24baed4963ee407ull);
}

// Domain-separation tags for the different hash ingredients.
constexpr std::uint64_t kNodeInit = 0x736e6f64ull;   // node color seed
constexpr std::uint64_t kOutTag = 0x6f757401ull;     // out-neighbor fold
constexpr std::uint64_t kInTag = 0x696e5f02ull;      // in-neighbor fold
constexpr std::uint64_t kEdgeTag = 0x65646765ull;    // edge signature
constexpr std::uint64_t kFinalTag = 0x73736366ull;   // final fold
constexpr std::uint64_t kBlankCost = 0x626c6e6bull;  // metric-blind cost
constexpr std::uint64_t kSourceTag = 0x73726301ull;
constexpr std::uint64_t kTargetTag = 0x74677402ull;
constexpr std::uint64_t kParticipantTag = 0x70727403ull;
constexpr std::uint64_t kReduceTargetTag = 0x72647404ull;
constexpr std::uint64_t kGossipSourceTag = 0x67737205ull;
constexpr std::uint64_t kScatterOp = 0x6f702d73ull;
constexpr std::uint64_t kGossipOp = 0x6f702d67ull;
constexpr std::uint64_t kReduceOp = 0x6f702d72ull;

// Index of each digest in the per-digest arrays below.
constexpr std::size_t kFull = 0;
constexpr std::size_t kStructure = 1;

/// One neighbor of a node, with the tag each digest folds in beside the
/// neighbor's color: direction plus cost hash for `full`, direction plus
/// the blank cost for `structure`.
struct Arc {
  graph::NodeId node;
  std::array<std::uint64_t, 2> tag;
};

/// One digest's side of the refinement.
struct Coloring {
  std::vector<std::uint64_t> color, next;
  std::size_t classes = 0;
  std::size_t rounds = 0;
  bool stable = false;
};

std::size_t count_classes(const std::vector<std::uint64_t>& color,
                          std::vector<std::uint64_t>& sorted) {
  sorted = color;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// Folds a role into node `v`'s seed. Role ids come from the caller
/// unchecked (the service digests a request before any solver validates
/// it), so an id outside the platform throws `bad_node`.
void seed(std::vector<std::uint64_t>& seeds, graph::NodeId v,
          std::uint64_t tag, std::uint64_t position, const char* bad_node) {
  if (v >= seeds.size()) throw std::invalid_argument(bad_node);
  seeds[v] = combine(seeds[v], combine(tag, position));
}

}  // namespace

Fingerprint fingerprint_platform(const Platform& platform,
                                 const std::vector<std::uint64_t>& role_seed) {
  const graph::Digraph& g = platform.graph();
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  if (!role_seed.empty() && role_seed.size() != n) {
    throw std::invalid_argument("fingerprint: one role seed per node");
  }

  // Shared setup: every cost hashed once, and one flat CSR holding each
  // node's out-arcs then in-arcs, arcs of v in [first[v], first[v + 1]).
  std::vector<std::uint64_t> cost(m);
  for (graph::EdgeId e = 0; e < m; ++e) {
    cost[e] = hash_rational(platform.edge_cost(e));
  }
  const std::uint64_t blank_out = combine(kOutTag, kBlankCost);
  const std::uint64_t blank_in = combine(kInTag, kBlankCost);
  std::vector<std::size_t> first(n + 1);
  std::vector<Arc> arcs;
  arcs.reserve(2 * m);
  for (graph::NodeId v = 0; v < n; ++v) {
    first[v] = arcs.size();
    for (graph::EdgeId e : g.out_edges(v)) {
      arcs.push_back({g.edge(e).dst, {combine(kOutTag, cost[e]), blank_out}});
    }
    for (graph::EdgeId e : g.in_edges(v)) {
      arcs.push_back({g.edge(e).src, {combine(kInTag, cost[e]), blank_in}});
    }
  }
  first[n] = arcs.size();

  std::array<Coloring, 2> side;
  std::vector<std::uint64_t> sorted;
  for (Coloring& c : side) {
    c.color.resize(n);
    c.next.resize(n);
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    const std::uint64_t c =
        combine(kNodeInit, role_seed.empty() ? 0 : role_seed[v]);
    side[kStructure].color[v] = c;
    side[kFull].color[v] = combine(c, hash_rational(platform.node_speed(v)));
  }
  for (Coloring& c : side) c.classes = count_classes(c.color, sorted);

  // One round of both refinements per pass over the CSR. A node's new color
  // is its old one combined with the SUM of mix(neighbor color ^ arc tag):
  // an order-free fold of its neighbor multiset. The new color folds in the
  // old, so a round only ever splits classes; the first round that adds
  // none leaves the partition stable, later rounds cannot separate anything
  // more, and that digest's colors freeze there. The cap bounds graphs that
  // keep splitting (long paths): enough rounds for a color to see past the
  // likely diameter of a platform.
  const std::size_t max_rounds =
      std::max<std::size_t>(4, std::bit_width(n + 1) + 1);
  for (std::size_t r = 0; r < max_rounds; ++r) {
    if (side[kFull].stable && side[kStructure].stable) break;
    for (graph::NodeId v = 0; v < n; ++v) {
      std::array<std::uint64_t, 2> sum{};
      for (std::size_t a = first[v]; a < first[v + 1]; ++a) {
        for (std::size_t k : {kFull, kStructure}) {
          sum[k] += mix(side[k].color[arcs[a].node] ^ arcs[a].tag[k]);
        }
      }
      for (std::size_t k : {kFull, kStructure}) {
        side[k].next[v] = combine(side[k].color[v], sum[k]);
      }
    }
    for (Coloring& c : side) {
      if (c.stable) continue;
      c.color.swap(c.next);
      ++c.rounds;
      const std::size_t classes = count_classes(c.color, sorted);
      c.stable = classes <= c.classes;
      c.classes = classes;
    }
  }

  // Each digest folds its rounds run and the order-free sums of its node
  // colors and edge signatures.
  auto digest = [&](std::size_t k) {
    const std::vector<std::uint64_t>& color = side[k].color;
    std::uint64_t nodes = 0;
    for (std::uint64_t c : color) nodes += mix(c);
    std::uint64_t edges = 0;
    for (graph::EdgeId e = 0; e < m; ++e) {
      std::uint64_t sig = combine(kEdgeTag, color[g.edge(e).src]);
      sig = combine(sig, color[g.edge(e).dst]);
      edges += combine(sig, k == kFull ? cost[e] : kBlankCost);
    }
    std::uint64_t h = combine(combine(kFinalTag, n), m);
    h = combine(combine(h, side[k].rounds), nodes);
    return combine(h, edges);
  };
  Fingerprint fp;
  fp.full = digest(kFull);
  fp.structure = digest(kStructure);
  return fp;
}

Fingerprint fingerprint(const ScatterInstance& instance) {
  std::vector<std::uint64_t> seeds(instance.platform.num_nodes(), 0);
  seed(seeds, instance.source, kSourceTag, 0, "scatter: bad source node");
  for (std::size_t i = 0; i < instance.targets.size(); ++i) {
    seed(seeds, instance.targets[i], kTargetTag, i + 1,
         "scatter: bad target node");
  }
  Fingerprint fp = fingerprint_platform(instance.platform, seeds);
  fp.full = combine(combine(fp.full, kScatterOp),
                    hash_rational(instance.message_size));
  fp.structure = combine(fp.structure, kScatterOp);
  return fp;
}

Fingerprint fingerprint(const GossipInstance& instance) {
  std::vector<std::uint64_t> seeds(instance.platform.num_nodes(), 0);
  for (std::size_t i = 0; i < instance.sources.size(); ++i) {
    seed(seeds, instance.sources[i], kGossipSourceTag, i + 1,
         "gossip: bad source");
  }
  for (std::size_t i = 0; i < instance.targets.size(); ++i) {
    seed(seeds, instance.targets[i], kTargetTag, i + 1, "gossip: bad target");
  }
  Fingerprint fp = fingerprint_platform(instance.platform, seeds);
  fp.full = combine(combine(fp.full, kGossipOp),
                    hash_rational(instance.message_size));
  fp.structure = combine(fp.structure, kGossipOp);
  return fp;
}

Fingerprint fingerprint(const ReduceInstance& instance) {
  std::vector<std::uint64_t> seeds(instance.platform.num_nodes(), 0);
  for (std::size_t i = 0; i < instance.participants.size(); ++i) {
    seed(seeds, instance.participants[i], kParticipantTag, i + 1,
         "reduce: bad participant node");
  }
  seed(seeds, instance.target, kReduceTargetTag, 0, "reduce: bad target node");
  Fingerprint fp = fingerprint_platform(instance.platform, seeds);
  fp.full = combine(combine(fp.full, kReduceOp),
                    hash_rational(instance.message_size));
  fp.full = combine(fp.full, hash_rational(instance.task_work));
  fp.structure = combine(fp.structure, kReduceOp);
  return fp;
}

bool same_shape(const Platform& a, const Platform& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node_name(v) != b.node_name(v)) return false;
  }
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.graph().edge(e).src != b.graph().edge(e).src ||
        a.graph().edge(e).dst != b.graph().edge(e).dst) {
      return false;
    }
  }
  return true;
}

bool same_platform(const Platform& a, const Platform& b) {
  if (!same_shape(a, b)) return false;
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.edge_cost(e) != b.edge_cost(e)) return false;
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node_speed(v) != b.node_speed(v)) return false;
  }
  return true;
}

bool same_instance(const ScatterInstance& a, const ScatterInstance& b) {
  return a.source == b.source && a.targets == b.targets &&
         a.message_size == b.message_size &&
         same_platform(a.platform, b.platform);
}

bool same_instance(const GossipInstance& a, const GossipInstance& b) {
  return a.sources == b.sources && a.targets == b.targets &&
         a.message_size == b.message_size &&
         same_platform(a.platform, b.platform);
}

bool same_instance(const ReduceInstance& a, const ReduceInstance& b) {
  return a.participants == b.participants && a.target == b.target &&
         a.message_size == b.message_size && a.task_work == b.task_work &&
         same_platform(a.platform, b.platform);
}

}  // namespace ssco::platform
