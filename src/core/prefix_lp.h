#pragma once
// Series-of-Parallel-Prefix steady-state LP — the extension proposed in the
// paper's conclusion (Sec. 6): "each node P_i must obtain the result v[0,i]
// of the reduction limited to those processors whose rank is lower than its
// own rank".
//
// The formulation generalizes SSR(G): the same send/cons variables over
// partial values v[k,m], the same one-port/compute rows and conservation
// law, but instead of a single sink (v[0,N-1] at the target) every prefix
// v[0,i] is demanded at rate TP by participant i. Partial values are shared
// between prefixes exactly as the associativity allows — e.g. one copy of
// v[0,3] can be delivered to P_3 while another is merged into v[0,5]. The
// model is the prefix family of IntervalFlowOracle (core/interval_colgen.h).
//
// This module provides the optimal-throughput computation (LP + exact
// certificate); schedule realization for prefix (a DAG rather than a tree
// decomposition) is out of the paper's scope and ours.

#include <string>

#include "core/interval_colgen.h"
#include "core/reduce_solution.h"

namespace ssco::core {

/// The reduce-family options; under column generation the prefix master is
/// seeded from a chain-of-prefixes plan (v[0,i-1] forwarded participant to
/// participant, merged on arrival) plus the support of `previous`.
using PrefixLpOptions = ReduceLpOptions;

/// Result: a ReduceSolution-shaped table (send/cons/throughput). The
/// conservation exclusions differ from reduce (prefix sinks), so use
/// validate_prefix() below rather than ReduceSolution::validate().
/// `previous` (optional) warm-starts the solve from that solution's optimal
/// basis — see solve_scatter.
[[nodiscard]] ReduceSolution solve_prefix(
    const platform::ReduceInstance& instance,
    const PrefixLpOptions& options = {},
    const ReduceSolution* previous = nullptr);

/// The dense model: every row and every column of the prefix oracle.
[[nodiscard]] lp::Model build_prefix_lp(
    const platform::ReduceInstance& instance,
    const PrefixLpOptions& options = {});

/// Exact validation of the prefix constraints: one-port, compute load,
/// conservation with per-prefix demands of TP. Empty string when valid.
[[nodiscard]] std::string validate_prefix(
    const platform::ReduceInstance& instance, const ReduceSolution& solution);

}  // namespace ssco::core
