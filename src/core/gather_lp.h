#pragma once
// Series-of-Gathers steady state.
//
// The paper's abstract groups "gather/reduce" together: a gather is the
// scatter's mirror — every source P_s streams a distinct message type m_s to
// ONE sink. Formally it is the personalized all-to-all SSPA2A(G) restricted
// to a single target, so this module is a thin, role-checked reduction to
// the gossip LP; it exists so user code can say what it means. (A reduce
// degenerates to a gather when the operator ⊕ is concatenation and no
// intermediate combining is wanted.)

#include "core/flow_solution.h"
#include "core/gossip_lp.h"

namespace ssco::core {

/// Commodity i of the result carries sources[i]'s message type.
/// Requires the sink to be distinct from every source and reachable.
/// `previous` (optional) warm-starts the solve from that solution's optimal
/// basis — see solve_scatter.
[[nodiscard]] MultiFlow solve_gather(const platform::Platform& platform,
                                     const std::vector<NodeId>& sources,
                                     NodeId sink, const Rational& message_size,
                                     const FlowLpOptions& options = {},
                                     const MultiFlow* previous = nullptr);

}  // namespace ssco::core
