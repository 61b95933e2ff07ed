#pragma once
// The flow-family steady-state LP — SSSP(G) (series of scatters, paper
// Sec. 3.1), SSPA2A(G) (series of personalized all-to-all, Sec. 3.5) and the
// gather, SSPA2A restricted to one target — defined once, in flow_lp.cpp.
//
// All three are one multi-commodity flow program over a list of commodities
// (origin, destination): a scatter has one commodity per target, all from
// the source; a gossip has one per ordered (source, target) pair with
// source != target; a gather is a gossip with a single target. Each
// commodity streams distinct same-size messages, and the LP maximizes the
// common delivery rate TP under the bidirectional one-port model. The
// builder produces the exact LP of the paper with two mechanical
// simplifications that change neither feasibility nor optimum:
//  * the occupation variables s(Pi->Pj) are substituted by their defining
//    equality (paper eq. 4), so one-port rows are written directly over the
//    send(...) variables;
//  * flow variables that provably carry no useful traffic (a commodity
//    leaving its own destination, or entering its own origin) are not
//    created.
//
// The 0 <= s <= 1 box constraints (paper eq. 1) are implied by the one-port
// rows (eq. 2-3) given non-negativity, so they need no extra rows.
//
// Layout: variables are commodity-major, then by edge, with TP last; rows
// are the one-port rows per node (out, then in), then conservation per
// commodity per node, then delivery per commodity. Entity names carry the
// commodity's tag — "m<target>" for a scatter type, "p<src>.<dst>" for a
// gossip or gather pair (core/lp_names.h). Warm-start snapshots and the plan
// cache map bases by these names, so names and order are part of the
// contract (pinned by tests/core/flow_lp_model_test.cpp).

#include "lp/exact_solver.h"

namespace ssco::core {

/// Options of the flow-family solvers (solve_scatter, solve_gossip,
/// solve_gather).
struct FlowLpOptions {
  lp::ExactSolverOptions solver;
};

}  // namespace ssco::core
