#pragma once
// Series-of-Reduces steady-state LP — SSR(G), paper Sec. 4.2.
//
// Participants P_{r_0}..P_{r_{N-1}} hold values v_0..v_{N-1}; the platform
// pipelines reductions v[0,N-1] = v_0 ⊕ ... ⊕ v_{N-1} (⊕ associative, NOT
// commutative — only adjacent intervals merge) toward a target node. The LP
// routes partial values v[k,m] and places merge tasks T(k,l,m) to maximize
// the completed-reduction rate TP, under one-port communication and
// fully-overlapped single-CPU computation.
//
// The model is the reduce family of IntervalFlowOracle
// (core/interval_colgen.h), whose conventions are mechanical and
// optimum-preserving:
//  * s(Pi->Pj) and alpha(Pi) are substituted by their defining equalities
//    (paper eq. 8/9), giving one-port and compute rows directly over
//    send/cons variables;
//  * cons variables exist only on `compute_nodes` (default: the
//    participants) — routers forward but do not compute;
//  * send variables for the full result leaving the target are suppressed.

#include "core/interval_colgen.h"
#include "core/reduce_solution.h"

namespace ssco::core {

/// The dense model: every row and every column of the reduce oracle.
[[nodiscard]] lp::Model build_reduce_lp(
    const platform::ReduceInstance& instance,
    const ReduceLpOptions& options = {});

/// `previous` (optional) warm-starts the solve from that solution's optimal
/// basis — see solve_scatter.
[[nodiscard]] ReduceSolution solve_reduce(
    const platform::ReduceInstance& instance,
    const ReduceLpOptions& options = {},
    const ReduceSolution* previous = nullptr);

}  // namespace ssco::core
