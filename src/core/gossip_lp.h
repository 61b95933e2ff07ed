#pragma once
// Series-of-Gossips (personalized all-to-all) steady-state LP — SSPA2A(G),
// paper Sec. 3.5.
//
// Every source P_k streams a distinct message type m_{k,l} to every target
// P_l; the LP maximizes the common rate TP at which each (source, target)
// pair delivers. It is the flow-family LP (core/flow_lp.h) with one
// commodity per ordered pair; pairs with k == l need no communication and
// are skipped.

#include "core/flow_lp.h"
#include "core/flow_solution.h"
#include "lp/exact_solver.h"
#include "platform/paper_instances.h"

namespace ssco::core {

[[nodiscard]] lp::Model build_gossip_lp(
    const platform::GossipInstance& instance);

/// Commodity order in the result: for each source (in instance order), each
/// distinct target in instance order.
/// Throws std::invalid_argument when roles are malformed, some target is
/// unreachable from some source, or no pair has source != target.
/// `previous` (optional) warm-starts the solve from that solution's optimal
/// basis — see solve_scatter.
[[nodiscard]] MultiFlow solve_gossip(const platform::GossipInstance& instance,
                                     const FlowLpOptions& options = {},
                                     const MultiFlow* previous = nullptr);

}  // namespace ssco::core
