#pragma once
// Series-of-Scatters steady-state LP — SSSP(G), paper Sec. 3.1.
//
// One source streams distinct same-size messages to every target; the LP
// maximizes the common delivery rate TP under the bidirectional one-port
// model. It is the flow-family LP with one commodity per target; the
// formulation is documented, and defined once, in core/flow_lp.h.

#include "core/flow_lp.h"
#include "core/flow_solution.h"
#include "lp/exact_solver.h"
#include "platform/paper_instances.h"

namespace ssco::core {

using ScatterLpOptions = FlowLpOptions;

/// Builds SSSP(G) for the instance. Exposed separately from solve() so tests
/// and the LP-format writer can inspect the model.
[[nodiscard]] lp::Model build_scatter_lp(
    const platform::ScatterInstance& instance);

/// Solves the steady-state scatter problem; commodity i of the result is
/// instance.targets[i]'s message type.
/// Throws std::invalid_argument when some target is unreachable (the LP would
/// be feasible only with TP = 0) or roles are malformed.
///
/// `previous` (optional) warm-starts the solve from that solution's optimal
/// basis (lp/dual_simplex.h) — the incremental path for a platform that
/// changed under a live plan. Exactness is unaffected: the result passes
/// the same certificates as a cold solve.
[[nodiscard]] MultiFlow solve_scatter(const platform::ScatterInstance& instance,
                                      const FlowLpOptions& options = {},
                                      const MultiFlow* previous = nullptr);

}  // namespace ssco::core
