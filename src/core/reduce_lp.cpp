#include "core/reduce_lp.h"

#include <stdexcept>
#include <unordered_set>

#include "baselines/reduce_trees.h"
#include "core/reduction_tree.h"
#include "graph/paths.h"

namespace ssco::core {

namespace {

using platform::ReduceInstance;

void check_instance(const ReduceInstance& instance) {
  const auto& graph = instance.platform.graph();
  if (instance.participants.empty()) {
    throw std::invalid_argument("reduce: no participants");
  }
  if (instance.target >= graph.num_nodes()) {
    throw std::invalid_argument("reduce: bad target node");
  }
  if (instance.message_size.signum() <= 0 ||
      instance.task_work.signum() <= 0) {
    throw std::invalid_argument("reduce: sizes must be positive");
  }
  std::unordered_set<NodeId> seen;
  for (NodeId p : instance.participants) {
    if (p >= graph.num_nodes()) {
      throw std::invalid_argument("reduce: bad participant node");
    }
    if (!seen.insert(p).second) {
      throw std::invalid_argument("reduce: duplicate participant");
    }
    auto reachable = graph::reachable_from(graph, p);
    if (!reachable[instance.target]) {
      throw std::invalid_argument("reduce: target unreachable from participant");
    }
  }
}

/// Heuristic master seeds: every transfer and merge of the three classic
/// reduction trees (paper Sec. 5's conventional schemes) — a complete
/// feasible plan each, so the first restricted master already sustains a
/// positive throughput.
IntervalSeeds tree_seeds(const ReduceInstance& instance) {
  IntervalSeeds seeds;
  for (const ReductionTree& tree :
       {baselines::flat_reduce_tree(instance),
        baselines::chain_reduce_tree(instance),
        baselines::binomial_reduce_tree(instance)}) {
    for (const TreeTask& task : tree.tasks) {
      if (task.kind == TreeTask::Kind::kTransfer) {
        seeds.send.emplace_back(task.interval, task.edge);
      } else {
        seeds.cons.emplace_back(task.node, task.task);
      }
    }
  }
  return seeds;
}

}  // namespace

lp::Model build_reduce_lp(const ReduceInstance& instance,
                          const ReduceLpOptions& options) {
  check_instance(instance);
  return IntervalFlowOracle(instance, IntervalFlowOracle::Family::kReduce,
                            options.compute_nodes)
      .build_full_model();
}

ReduceSolution solve_reduce(const ReduceInstance& instance,
                            const ReduceLpOptions& options,
                            const ReduceSolution* previous) {
  check_instance(instance);
  return solve_interval_lp(
      instance, IntervalFlowOracle::Family::kReduce, options,
      [&] { return tree_seeds(instance); }, previous);
}

}  // namespace ssco::core
