#pragma once
// EXTRACT_TREES / FIND_TREE — paper Fig. 8, Theorem 1.
//
// Decomposes a steady-state reduce solution A into a polynomial-size family
// of weighted reduction trees with  sum_T w(T) * chi_T = A  restricted to the
// used tasks (the remainder of A after extraction is the zero application).
// Each round: FIND_TREE greedily resolves demands starting from (v[0,N-1],
// target), preferring in-place computation over transfers, exactly as in the
// paper; the tree is weighted by the minimum remaining value among its tasks
// and peeled off. Every round zeroes at least one task, giving at most
// 2 n^4 trees (Theorem 1's bound).
//
// Precondition: A validates (exact conservation) and is cycle-free per
// interval — solve_reduce() guarantees both, since every solve ends with
// ReduceSolution::prune_cycles. Conservation is what makes FIND_TREE's greedy choices always succeed
// (see the invariant H in the paper's proof).

#include <vector>

#include "core/reduce_solution.h"
#include "core/reduction_tree.h"

namespace ssco::core {

struct TreeDecomposition {
  std::vector<ReductionTree> trees;
  /// Sum of tree weights; equals the solution's TP on success.
  Rational total_weight;

  /// Reconstitute sum w(T) * chi_T and compare against `solution` exactly
  /// (only over tasks with positive multiplicity — extraction may leave
  /// unused zero-weight circulation untouched). Empty string when exact.
  [[nodiscard]] std::string verify_reconstitution(
      const platform::ReduceInstance& instance,
      const ReduceSolution& solution) const;
};

/// Runs EXTRACT_TREES on a copy of `solution`.
/// Throws std::logic_error when the solution's conservation is broken (i.e.
/// the precondition does not hold).
[[nodiscard]] TreeDecomposition extract_trees(
    const platform::ReduceInstance& instance, const ReduceSolution& solution);

}  // namespace ssco::core
