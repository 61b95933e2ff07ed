#include "core/reduce_schedule.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/integralize.h"

namespace ssco::core {

PeriodicSchedule build_reduce_schedule(
    const platform::ReduceInstance& instance,
    const TreeDecomposition& decomposition,
    const ScheduleOptions& options) {
  const IntervalSpace sp(instance.participants.size());

  std::vector<Rational> weights;
  weights.reserve(decomposition.trees.size());
  for (const ReductionTree& t : decomposition.trees) weights.push_back(t.weight);
  PeriodicSchedule schedule;
  schedule.period = Rational(integral_period(weights));
  schedule.supplier_of_type.assign(sp.num_intervals(), graph::kInvalidId);
  schedule.sink_of_type.assign(sp.num_intervals(), graph::kInvalidId);
  for (std::size_t i = 0; i < instance.participants.size(); ++i) {
    schedule.supplier_of_type[sp.interval_id(i, i)] = instance.participants[i];
  }
  schedule.sink_of_type[sp.full_interval_id()] = instance.target;

  // Aggregate messages per (edge, interval) and tasks per (node, task)
  // across trees — the schedule does not need tree identity, and merging
  // keeps the bipartite graph small.
  std::map<std::pair<graph::EdgeId, std::size_t>, Rational> transfer_count;
  std::map<std::pair<graph::NodeId, std::size_t>, Rational> task_count;
  for (const ReductionTree& tree : decomposition.trees) {
    Rational per_period = tree.weight * schedule.period;
    for (const TreeTask& t : tree.tasks) {
      if (t.kind == TreeTask::Kind::kTransfer) {
        transfer_count[{t.edge, t.interval}] += per_period;
      } else {
        task_count[{t.node, t.task}] += per_period;
      }
    }
  }

  // Computation: per node, pack tasks sequentially ordered by produced
  // interval width (small merges first shortens the pipeline ramp-up).
  std::map<graph::NodeId, std::vector<std::pair<std::size_t, Rational>>>
      per_node;
  for (const auto& [key, count] : task_count) {
    per_node[key.first].emplace_back(key.second, count);
  }
  for (auto& [node, tasks] : per_node) {
    std::sort(tasks.begin(), tasks.end(),
              [&sp](const auto& a, const auto& b) {
                auto [ak, al, am] = sp.task(a.first);
                auto [bk, bl, bm] = sp.task(b.first);
                return std::tuple(am - ak, a.first) <
                       std::tuple(bm - bk, b.first);
              });
    Rational t(0);
    for (const auto& [task, count] : tasks) {
      Rational end =
          t + count * instance.task_work / instance.platform.node_speed(node);
      const auto [k, l, m] = sp.task(task);
      schedule.comps.push_back(CompActivity{
          node, task, t, end, count, sp.interval_id(k, l),
          sp.interval_id(l + 1, m), sp.interval_id(k, m)});
      t = std::move(end);
    }
    if (t > schedule.period) {
      throw std::logic_error(
          "build_reduce_schedule: compute packing exceeds the period");
    }
  }

  // (edge, interval) map order: it fixes the coloring.
  std::vector<Traffic> traffic;
  traffic.reserve(transfer_count.size());
  for (const auto& [key, count] : transfer_count) {
    traffic.push_back(Traffic{key.first, key.second, count});
  }
  lay_out_comms(schedule, instance.platform, instance.message_size, traffic,
                options);
  return schedule;
}

}  // namespace ssco::core
