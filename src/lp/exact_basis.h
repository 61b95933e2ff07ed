#pragma once
// Exact sparse linear solves for simplex basis verification.
//
// When rounding the double simplex solution fails its optimality certificate
// (degenerate optima whose vertex coordinates have huge denominators), the
// basis itself is still almost always correct. This module recovers the
// EXACT basic solution from it: factor the basis matrix once in double
// precision with the shared sparse LU (lp/basis_lu.h), then run iterative
// refinement with exact rational residuals —
// each pass gains ~50 bits of accuracy — and reconstruct each component by
// continued fractions once the accumulated precision exceeds twice the
// denominator size. The candidate is verified exactly against the system, so
// the result is unconditionally correct (the scheme of QSopt_ex / exact
// SoPlex).

#include <optional>
#include <utility>
#include <vector>

#include "lp/parallel.h"
#include "num/rational.h"

namespace ssco::lp {

using num::BigInt;
using num::Rational;

/// Square sparse rational matrix, column-major.
struct SparseColumns {
  std::size_t n = 0;
  /// cols[j] = list of (row, value); rows unordered, no duplicates.
  std::vector<std::vector<std::pair<std::size_t, Rational>>> cols;

  [[nodiscard]] SparseColumns transposed() const;
  /// Exact matrix-vector product M * x. `parallel` shards the columns; each
  /// shard scatters into its own partial sum, merged in shard order — exact
  /// arithmetic makes every grouping the canonical value, so the product is
  /// bit-identical at any budget.
  [[nodiscard]] std::vector<Rational> multiply(
      const std::vector<Rational>& x, const Parallel& parallel = {}) const;
  /// Exact matrix-vector product M' * y (column-wise dots; no transpose
  /// materialized). Each output is one independent dot, so `parallel`
  /// shards the columns without changing a bit.
  [[nodiscard]] std::vector<Rational> multiply_transposed(
      const std::vector<Rational>& y, const Parallel& parallel = {}) const;
};

/// Solves M x = rhs exactly. Returns nullopt when M is numerically singular
/// or refinement fails to converge to a verifiable rational solution.
[[nodiscard]] std::optional<std::vector<Rational>> solve_sparse_exact(
    const SparseColumns& matrix, const std::vector<Rational>& rhs);

/// Both systems a simplex basis verification needs — M x = rhs and
/// M' y = rhs_transposed — from ONE shared double LU factorization (FTRAN
/// for the straight system, BTRAN for the transposed one).
struct ExactBasisSolves {
  std::vector<Rational> solution;             // M x = rhs
  std::vector<Rational> transposed_solution;  // M' y = rhs_transposed
};
/// `parallel` shards the per-component rational work (residuals,
/// reconstruction, verification) and runs the two refinements concurrently
/// (each with its own BasisLu::Workspace against the one shared const LU),
/// splitting the thread budget between them; serially they run one after
/// the other. Every sharded loop is element-independent or merged with
/// exact arithmetic, so the result is bit-identical at any budget.
[[nodiscard]] std::optional<ExactBasisSolves> solve_sparse_exact_pair(
    const SparseColumns& matrix, const std::vector<Rational>& rhs,
    const std::vector<Rational>& rhs_transposed,
    const Parallel& parallel = {});

}  // namespace ssco::lp
