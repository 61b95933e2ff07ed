#include "core/prefix_lp.h"

#include <stdexcept>
#include <unordered_set>

#include "graph/paths.h"

namespace ssco::core {

namespace {

using platform::ReduceInstance;

void check_instance(const ReduceInstance& instance) {
  const auto& graph = instance.platform.graph();
  if (instance.participants.size() < 2) {
    throw std::invalid_argument("prefix: need at least two participants");
  }
  if (instance.message_size.signum() <= 0 ||
      instance.task_work.signum() <= 0) {
    throw std::invalid_argument("prefix: sizes must be positive");
  }
  std::unordered_set<NodeId> seen;
  for (NodeId p : instance.participants) {
    if (p >= graph.num_nodes()) {
      throw std::invalid_argument("prefix: bad participant node");
    }
    if (!seen.insert(p).second) {
      throw std::invalid_argument("prefix: duplicate participant");
    }
  }
  // v[0,i] needs contributions from every j <= i: demand pairwise forward
  // reachability.
  for (std::size_t j = 0; j < instance.participants.size(); ++j) {
    auto reach = graph::reachable_from(graph, instance.participants[j]);
    for (std::size_t i = j + 1; i < instance.participants.size(); ++i) {
      if (!reach[instance.participants[i]]) {
        throw std::invalid_argument(
            "prefix: participant " + std::to_string(i) +
            " unreachable from participant " + std::to_string(j));
      }
    }
  }
}

/// Chain-of-prefixes seed: v[0,i-1] forwarded from participant i-1 to
/// participant i along shortest paths and merged with v[i,i] on arrival —
/// one complete feasible prefix plan, the analogue of the reduce solver's
/// reduction-tree seeds.
IntervalSeeds chain_seeds(const ReduceInstance& instance) {
  const IntervalSpace sp(instance.participants.size());
  IntervalSeeds seeds;
  for (std::size_t i = 1; i < instance.participants.size(); ++i) {
    const NodeId from = instance.participants[i - 1];
    const NodeId to = instance.participants[i];
    if (from != to) {
      auto tree = graph::dijkstra(instance.platform.graph(),
                                  instance.platform.edge_costs(), from);
      for (EdgeId e : tree.path_to(to, instance.platform.graph())) {
        seeds.send.emplace_back(sp.interval_id(0, i - 1), e);
      }
    }
    seeds.cons.emplace_back(to, sp.task_id(0, i - 1, i));
  }
  return seeds;
}

}  // namespace

lp::Model build_prefix_lp(const ReduceInstance& instance,
                          const PrefixLpOptions& options) {
  check_instance(instance);
  return IntervalFlowOracle(instance, IntervalFlowOracle::Family::kPrefix,
                            options.compute_nodes)
      .build_full_model();
}

ReduceSolution solve_prefix(const ReduceInstance& instance,
                            const PrefixLpOptions& options,
                            const ReduceSolution* previous) {
  check_instance(instance);
  return solve_interval_lp(
      instance, IntervalFlowOracle::Family::kPrefix, options,
      [&] { return chain_seeds(instance); }, previous);
}

std::string validate_prefix(const platform::ReduceInstance& instance,
                            const ReduceSolution& solution) {
  const IntervalSpace sp(instance.participants.size());
  const auto& graph = instance.platform.graph();

  std::vector<Rational> occ = solution.edge_occupation(instance);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    Rational out_busy(0), in_busy(0);
    for (EdgeId e : graph.out_edges(n)) out_busy += occ[e];
    for (EdgeId e : graph.in_edges(n)) in_busy += occ[e];
    if (out_busy > Rational(1)) return "one-port (send) violated";
    if (in_busy > Rational(1)) return "one-port (recv) violated";
  }
  for (const Rational& load : solution.compute_load(instance)) {
    if (load > Rational(1)) return "compute load exceeds 1";
  }
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    auto [k, m] = sp.interval(iv);
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const bool own_singleton = k == m && instance.participants[k] == node;
      if (own_singleton) continue;
      Rational net = solution.net_balance(instance, iv, node);
      const bool prefix_sink = k == 0 && instance.participants[m] == node;
      if (prefix_sink) {
        if (net != solution.throughput) {
          return "prefix v[0," + std::to_string(m) + "] absorbed at rate " +
                 net.to_string() + " != TP";
        }
      } else if (!net.is_zero()) {
        return "conservation violated for v[" + std::to_string(k) + "," +
               std::to_string(m) + "] at node " + std::to_string(node);
      }
    }
  }
  return {};
}

}  // namespace ssco::core
