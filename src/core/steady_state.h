#pragma once
// Umbrella header and one-call convenience API.
//
// The individual headers expose each pipeline stage; these helpers run the
// full paper pipeline in one call for the common case:
//
//   auto result = ssco::core::optimize_scatter(instance);
//   result.flow.throughput;   // exact optimal TP
//   result.schedule;          // one-port-safe periodic schedule
//
// and equivalently optimize_gossip / optimize_reduce (which also carries the
// reduction-tree family of Sec. 4.3/4.4).

#include "core/edge_coloring.h"
#include "core/flow_lp.h"
#include "core/flow_solution.h"
#include "core/gather_lp.h"
#include "core/gossip_lp.h"
#include "core/integralize.h"
#include "core/intervals.h"
#include "core/period_approx.h"
#include "core/prefix_lp.h"
#include "core/reduce_lp.h"
#include "core/reduce_schedule.h"
#include "core/reduce_solution.h"
#include "core/reduction_tree.h"
#include "core/scatter_lp.h"
#include "core/scatter_schedule.h"
#include "core/schedule.h"
#include "core/tree_extract.h"

namespace ssco::core {

/// LP solution + realized periodic schedule for scatter/gossip.
struct FlowPlan {
  MultiFlow flow;
  PeriodicSchedule schedule;
};

/// LP solution + tree family + realized periodic schedule for reduce.
struct ReducePlan {
  ReduceSolution solution;
  TreeDecomposition trees;
  PeriodicSchedule schedule;
};

struct PlanOptions {
  bool allow_split_messages = true;
  lp::ExactSolverOptions solver;
};

/// solve_scatter + build_flow_schedule in one call.
///
/// `previous` (optional) re-solves INCREMENTALLY from that plan's optimal
/// basis — the intended loop for a live platform: keep the returned plan,
/// mutate the platform (platform::apply_delta), and pass the old plan back
/// in. The LP warm-starts through the dual simplex and the result is
/// re-certified exactly, so an incremental plan is indistinguishable from a
/// cold one (besides being much cheaper to compute).
[[nodiscard]] FlowPlan optimize_scatter(
    const platform::ScatterInstance& instance, const PlanOptions& options = {},
    const FlowPlan* previous = nullptr);

/// solve_gossip + build_flow_schedule in one call (incremental like
/// optimize_scatter when `previous` is given).
[[nodiscard]] FlowPlan optimize_gossip(const platform::GossipInstance& instance,
                                       const PlanOptions& options = {},
                                       const FlowPlan* previous = nullptr);

/// solve_reduce + extract_trees + build_reduce_schedule in one call
/// (incremental like optimize_scatter when `previous` is given).
[[nodiscard]] ReducePlan optimize_reduce(
    const platform::ReduceInstance& instance, const PlanOptions& options = {},
    const ReducePlan* previous = nullptr);

}  // namespace ssco::core
