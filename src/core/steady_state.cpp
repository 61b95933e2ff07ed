#include "core/steady_state.h"

namespace ssco::core {

FlowPlan optimize_scatter(const platform::ScatterInstance& instance,
                          const PlanOptions& options,
                          const FlowPlan* previous) {
  FlowLpOptions lp_options;
  lp_options.solver = options.solver;
  FlowPlan plan;
  plan.flow =
      solve_scatter(instance, lp_options, previous ? &previous->flow : nullptr);
  ScatterScheduleOptions sched_options;
  sched_options.allow_split_messages = options.allow_split_messages;
  plan.schedule =
      build_flow_schedule(instance.platform, plan.flow, sched_options);
  return plan;
}

FlowPlan optimize_gossip(const platform::GossipInstance& instance,
                         const PlanOptions& options,
                         const FlowPlan* previous) {
  FlowLpOptions lp_options;
  lp_options.solver = options.solver;
  FlowPlan plan;
  plan.flow =
      solve_gossip(instance, lp_options, previous ? &previous->flow : nullptr);
  ScatterScheduleOptions sched_options;
  sched_options.allow_split_messages = options.allow_split_messages;
  plan.schedule =
      build_flow_schedule(instance.platform, plan.flow, sched_options);
  return plan;
}

ReducePlan optimize_reduce(const platform::ReduceInstance& instance,
                           const PlanOptions& options,
                           const ReducePlan* previous) {
  ReduceLpOptions lp_options;
  lp_options.solver = options.solver;
  ReducePlan plan;
  plan.solution = solve_reduce(instance, lp_options,
                               previous ? &previous->solution : nullptr);
  plan.trees = extract_trees(instance, plan.solution);
  ReduceScheduleOptions sched_options;
  sched_options.allow_split_messages = options.allow_split_messages;
  plan.schedule = build_reduce_schedule(instance, plan.trees, sched_options);
  return plan;
}

}  // namespace ssco::core
