#pragma once
// Pinned input generators for the benchmark workloads.
//
// Copied from bench/testing_support.h and graph/generators.cpp (the random
// spanning tree plus extra pairs, and the splitmix64 generator) so that an
// edit to the library's generators or to bench/ cannot silently change what
// the benchmark measures. Only the Digraph/Platform containers come from the
// library; a change there that alters an instance shows up as an instance
// digest mismatch (digests.h).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "platform/delta.h"
#include "platform/paper_instances.h"
#include "platform/platform.h"

namespace bench {

using ssco::graph::Digraph;
using ssco::graph::EdgeId;
using ssco::graph::NodeId;
using ssco::num::Rational;
using ssco::platform::Platform;
using ssco::platform::ReduceInstance;
using ssco::platform::ScatterInstance;

/// splitmix64, bit-identical to ssco::graph::Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi] (rejection sampling, no modulo bias).
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return next_u64();
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return lo + v % span;
  }
  double uniform01() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }
  bool bernoulli(double p) { return uniform01() < p; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(uniform(0, i - 1))]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Random spanning tree (each node, in shuffled order, attached to a random
/// earlier one) plus every other pair with probability `extra_edge_prob`.
inline Digraph random_connected(std::size_t n, double extra_edge_prob,
                                Rng& rng) {
  Digraph g(n);
  std::vector<NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 1; i < n; ++i) {
    g.add_bidirectional(order[i], order[rng.uniform(0, i - 1)]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!g.has_edge(i, j) && rng.bernoulli(extra_edge_prob)) {
        g.add_bidirectional(i, j);
      }
    }
  }
  return g;
}

/// Connected platform with symmetric link costs a/b (a in 1..6, b in 1..4)
/// and integer speeds 1..10.
inline Platform random_platform(std::uint64_t seed, std::size_t n,
                                double extra_edge_prob) {
  Rng rng(seed);
  Digraph topo = random_connected(n, extra_edge_prob, rng);
  std::vector<Rational> costs(topo.num_edges());
  for (EdgeId e = 0; e < topo.num_edges(); ++e) {
    const EdgeId reverse = topo.find_edge(topo.edge(e).dst, topo.edge(e).src);
    if (reverse != ssco::graph::kInvalidId && reverse < e) {
      costs[e] = costs[reverse];
    } else {
      costs[e] = Rational(static_cast<std::int64_t>(rng.uniform(1, 6)),
                          static_cast<std::int64_t>(rng.uniform(1, 4)));
    }
  }
  std::vector<Rational> speeds;
  speeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    speeds.emplace_back(static_cast<std::int64_t>(rng.uniform(1, 10)));
  }
  return Platform(std::move(topo), std::move(costs), std::move(speeds));
}

/// Dense (~30% of pairs linked) scatter from node 0 to the last
/// `num_targets` nodes.
inline ScatterInstance dense_scatter(std::uint64_t seed, std::size_t n,
                                     std::size_t num_targets) {
  ScatterInstance inst;
  inst.platform = random_platform(seed, n, 0.3);
  inst.source = 0;
  for (std::size_t i = 0; i < num_targets; ++i) inst.targets.push_back(n - 1 - i);
  return inst;
}

/// Reduce over the last `participants` nodes toward the last one; `sparse`
/// gives ~4 extra arcs per node (wafer-scale / torus-like fabric density)
/// instead of the dense ~30% of pairs.
inline ReduceInstance random_reduce(std::uint64_t seed, std::size_t n,
                                    std::size_t participants, bool sparse) {
  ReduceInstance inst;
  inst.platform =
      random_platform(seed, n, sparse ? 4.0 / static_cast<double>(n) : 0.3);
  for (std::size_t i = 0; i < participants; ++i) {
    inst.participants.push_back(n - participants + i);
  }
  inst.target = inst.participants.back();
  return inst;
}

/// Chained drift: element k is element k-1 with one edge cost nudged by
/// +-5% (the slowly drifting live platform of the plan service), rounded to
/// a multiple of 1/240 like a measured rate. Unrounded, every step
/// multiplies a denominator by 20, and the schedule periods (their LCMs)
/// grow along the chain until a few late variants dominate the tail.
template <typename Instance>
std::vector<Instance> drift_chain(Instance base, std::uint64_t seed,
                                  std::size_t count) {
  std::vector<Instance> chain;
  chain.reserve(count);
  chain.push_back(std::move(base));
  Rng rng(seed);
  while (chain.size() < count) {
    const Platform& prev = chain.back().platform;
    ssco::platform::PlatformDelta delta;
    const auto e = static_cast<EdgeId>(rng.uniform(0, prev.num_edges() - 1));
    const Rational nudged =
        prev.edge_cost(e) *
        (rng.bernoulli(0.5) ? Rational(21, 20) : Rational(19, 20)) * 240;
    const ssco::num::BigInt ticks = (nudged + Rational(1, 2)).floor();
    delta.cost_changes.push_back(
        {e, Rational(ticks.is_zero() ? ssco::num::BigInt(1) : ticks,
                     ssco::num::BigInt(240))});
    Instance next = chain.back();
    next.platform = ssco::platform::apply_delta(prev, delta).platform;
    chain.push_back(std::move(next));
  }
  return chain;
}

/// Per-edge link rate scale with a seeded `share` of links at half rate
/// (the drift the executor observes and the re-solve corrects).
inline std::vector<double> half_rate_links(std::uint64_t seed,
                                           std::size_t num_edges,
                                           double share) {
  Rng rng(seed);
  std::vector<double> scale(num_edges, 1.0);
  for (double& s : scale) {
    if (rng.bernoulli(share)) s = 0.5;
  }
  return scale;
}

/// FNV-1a over a canonical text form: stable across runs and builds, and
/// independent of the library's own fingerprinting.
class Digest {
 public:
  Digest& add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 0x100000001b3ull;
    return *this;
  }
  Digest& add(std::uint64_t v) { return add(std::to_string(v)); }
  Digest& add(const Rational& r) { return add(r.to_string()); }
  Digest& add(const Platform& p) {
    add(p.num_nodes());
    for (EdgeId e = 0; e < p.num_edges(); ++e) {
      add(p.graph().edge(e).src).add(p.graph().edge(e).dst).add(p.edge_cost(e));
    }
    for (NodeId n = 0; n < p.num_nodes(); ++n) add(p.node_speed(n));
    return *this;
  }
  Digest& add(const ScatterInstance& inst) {
    add(inst.platform).add(inst.source).add(inst.message_size);
    for (NodeId t : inst.targets) add(t);
    return *this;
  }
  Digest& add(const ReduceInstance& inst) {
    add(inst.platform).add(inst.target).add(inst.message_size).add(inst.task_work);
    for (NodeId p : inst.participants) add(p);
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = kHex[(h_ >> (4 * i)) & 0xf];
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace bench
