#pragma once
// LU-factorized simplex basis with product-form (eta) updates.
//
// Factors the m x m basis matrix B — given as a selection of columns of a
// CSC constraint matrix — into P B = L U by Gilbert–Peierls left-looking
// Gaussian elimination with partial pivoting: the factors and all fill-in
// stay sparse, and so does the SYMBOLIC work. Per column, a depth-first
// search over the pattern of L (seeded at the already-pivoted rows of the
// scattered column, expanding through each reached column of L) computes
// exactly the set of prior elimination steps that can contribute; sorted
// ascending — a topological order of that DAG, since an L column only ever
// points at strictly later steps — those steps are then applied numerically
// in the same order, with the same skip of numerically-cancelled entries,
// as the classic probe-every-prior-step loop. Factor cost therefore tracks
// fill (O(flops + pattern edges)) instead of carrying an m^2/64 probe floor
// per refactorization, while performing the EXACT same floating-point
// operations in the same order. The factors support
//   * FTRAN: solve B x = b   (entering-column transform, basic values),
//   * BTRAN: solve B' y = c  (simplex multipliers, pricing row).
// FTRAN is hypersparse (Gilbert–Peierls reach plus Hall–McKinnon): it takes
// b with its nonzero rows, drains bitsets of the steps that can be nonzero
// through L (lowest first) and U (highest first), skips every eta whose
// pivot entry is zero, and returns the positions that may be nonzero, so its
// cost tracks the nonzeros it touches, not m. BTRAN's eta pass reads only
// eta entries at positions where the running vector is nonzero; its U' and
// L' passes stay dense loops, because the multipliers end mostly dense.
// Both skip a floating-point operation only when an operand is exactly
// zero and keep every other one in the order a dense sweep over all steps
// and terms would, so every nonzero result is bit-identical to that sweep's;
// only the sign of a zero can differ.
//
// Storage is structure-of-arrays: every factor (L and U by column, their
// transposed mirrors by row, the eta file) lives in one flat arena of
// 32-bit indices plus one cache-line-aligned arena of double values
// (lp/aligned.h), with a per-column offset table. Compared to the previous
// vector-of-vectors-of-pairs layout this halves index bandwidth, removes a
// pointer chase per column, removes ~3m heap allocations per
// refactorization, and gives the hot FTRAN/BTRAN loops contiguous streams
// the compiler can vectorize.
//
// Basis exchanges are absorbed as product-form eta vectors (Forrest-style
// refactorize-or-update policy is the caller's: `updates()` reports the eta
// count so the simplex driver can refactorize periodically, which also
// resets floating-point drift). The same factorization serves as the float
// kernel of the exact iterative refinement in lp/exact_basis.h.
//
// Index spaces: `b` for FTRAN and the BTRAN result `y` live in ROW space;
// the FTRAN result `x` and the BTRAN input `c` live in BASIS-POSITION space
// (component k corresponds to the k-th basis column).
//
// Thread-safety: a BasisLu is immutable through ftran/btran, which write
// only into the CALLER-OWNED workspace, so any number of threads may solve
// against one factorization concurrently as long as each brings its own
// Workspace — the contract that unblocks parallel certificate verification
// (lp/exact_solver.h). update() is the only mutating call and requires
// external exclusion.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lp/aligned.h"
#include "lp/sparse.h"

namespace ssco::lp {

/// A set of indices, one bit each (index k is bit k % 64 of word k / 64):
/// the positions where a sparse FTRAN result may be nonzero. A superset is
/// always valid; every index outside it holds an exact zero.
using Support = std::vector<std::uint64_t>;

/// Calls fn(k) for every index k in `bits`, in ascending order.
template <typename Fn>
void for_each_bit(const Support& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
    }
  }
}

class BasisLu {
 public:
  /// A pivot below this (in absolute value) marks the basis singular.
  static constexpr double kPivotTolerance = 1e-11;
  /// Entries below this are dropped from the factors and eta vectors.
  static constexpr double kDropTolerance = 1e-14;

  struct Options {
    /// Eliminate basis columns in ascending nonzero-count order (stable, so
    /// ties keep position order) instead of position order — a static
    /// Markowitz-style preorder. Slack/identity columns and other singletons
    /// eliminate first with zero fill, and the dense tail is deferred to the
    /// end where it can no longer generate fill in earlier columns; on the
    /// steady-state bases here this cuts L+U fill several-fold, and every
    /// FTRAN/BTRAN/refactorization is priced by that fill. The permutation
    /// is internal: callers still address basis POSITIONS (ftran results,
    /// btran inputs, eta updates are position-space as documented), at the
    /// cost of one O(m) permute per solve. Off by default because the
    /// elimination order changes the floating-point stream — equivalent
    /// algebra, different rounding, possibly a different optimal VERTEX on
    /// degenerate models — so it is an explicit engine-level policy, not a
    /// silent kernel default.
    bool fill_preorder = false;
  };

  /// Factors the matrix whose k-th column is A[:, columns[k]].
  /// `columns.size()` must equal A.num_rows(). Returns nullopt when the
  /// selection is numerically singular.
  [[nodiscard]] static std::optional<BasisLu> factor(
      const CscMatrix& A, const std::vector<std::size_t>& columns,
      const Options& options);
  [[nodiscard]] static std::optional<BasisLu> factor(
      const CscMatrix& A, const std::vector<std::size_t>& columns) {
    return factor(A, columns, Options{});
  }

  [[nodiscard]] std::size_t dim() const { return pivot_row_.size(); }
  [[nodiscard]] std::size_t updates() const { return eta_r_.size(); }

  /// Nonzeros in L + U + diagonal — the per-solve cost of the bare factors.
  [[nodiscard]] std::size_t factor_nonzeros() const { return factor_nnz_; }
  /// Nonzeros accumulated in the eta file; every FTRAN/BTRAN pays this on
  /// top of the factors, so the simplex drivers refactorize once the eta
  /// fill rivals the factor fill instead of on a fixed pivot count.
  [[nodiscard]] std::size_t eta_nonzeros() const { return eta_nnz_; }

  /// Per-call scratch of ftran/btran. Caller-owned (a per-thread or
  /// per-engine member, reused across calls so the hot loops never
  /// allocate). Apart from `steps`, contents are meaningless between calls.
  struct Workspace {
    /// btran's row-space result buffer.
    std::vector<double> scratch;
    /// Second scratch used by btran when the factorization carries a
    /// fill-reducing preorder (the position -> step permute needs a buffer
    /// distinct from the row-space accumulator).
    std::vector<double> scratch2;
    /// ftran's step-space accumulator; all zero between calls.
    std::vector<double> steps;
    /// Nonzero rows of a dense ftran right-hand side.
    std::vector<std::size_t> rows;
    /// ftran's step drain; btran's running support.
    Support pending;
    /// The positions ftran returns.
    Support support;
  };

  /// Solves B x = b in place: on entry `x` (size dim()) holds b in row
  /// space, and `rows` lists every row where b may be nonzero; on exit `x`
  /// holds the solution in basis-position space. Returns the positions
  /// where the solution may be nonzero (it is exactly zero everywhere
  /// else); the reference points into `ws` and stays valid until the next
  /// ftran on it.
  const Support& ftran(std::vector<double>& x,
                       std::span<const std::size_t> rows,
                       Workspace& ws) const;
  /// Dense right-hand side: scans `x` once for its nonzero rows.
  const Support& ftran(std::vector<double>& x, Workspace& ws) const;

  /// Solves B' y = c in place: on entry `x` holds c (basis-position space),
  /// on exit the solution in row space.
  void btran(std::vector<double>& x, Workspace& ws) const;

  /// Convenience overloads with a throwaway workspace (tests, one-shot
  /// solves); hot paths should hold a Workspace instead.
  void ftran(std::vector<double>& x) const {
    Workspace ws;
    ftran(x, ws);
  }
  void btran(std::vector<double>& x) const {
    Workspace ws;
    btran(x, ws);
  }

  /// Absorbs a basis exchange at position `r` as an eta vector, where `w` is
  /// the FTRAN-transformed entering column (w = B^-1 a, position space) and
  /// `nonzeros` covers every position where w is nonzero (ftran's result).
  /// Returns false — leaving the factorization unchanged — when |w[r]| is
  /// too small to pivot on; the caller should refactorize instead.
  [[nodiscard]] bool update(std::size_t r, const std::vector<double>& w,
                            const Support& nonzeros);

  /// Extends the factorization by one dimension for a freshly APPENDED
  /// matrix row whose basic column is the unit vector on that row (the
  /// row-generation append: no existing column touches the new row, so the
  /// extended basis is block-diagonal and the new elimination step is
  /// pivot = new row, diagonal 1, no off-diagonal fill). Existing factors,
  /// mirrors and the eta file stay untouched and valid. Returns the new
  /// row's index (== dim() - 1 afterwards).
  std::size_t append_identity_row();

 private:
  friend struct BasisLuTestAccess;  // dense reference loops in the tests

  /// Row / position indices of the factor arenas. Basis dimensions are row
  /// counts of the expanded models, far below 2^31.
  using Index = std::int32_t;

  /// pivot_row_[k]: row chosen as pivot at elimination step k (a permutation).
  std::vector<std::size_t> pivot_row_;
  /// step_of_row_[i]: elimination step that pivoted on row i (the inverse).
  std::vector<Index> step_of_row_;
  /// Basis position eliminated at step k under a fill-reducing preorder
  /// (Options::fill_preorder); EMPTY when the order is the identity, which
  /// the solve paths use as the no-permute fast path.
  std::vector<Index> pos_of_step_;
  /// Its inverse, step_of_pos_[pos_of_step_[k]] == k; empty alongside it.
  std::vector<Index> step_of_pos_;

  // Column k of L (unit diagonal implicit): multipliers (row, l_ik) for rows
  // not yet pivoted at step k, in original row indices. Stored SoA:
  // entries of column k live at [l_start_[k], l_start_[k + 1]).
  std::vector<std::size_t> l_start_;
  AlignedVector<Index> l_idx_;
  AlignedVector<double> l_val_;
  // Column k of U above the diagonal: (position j < k, u_jk), same layout.
  std::vector<std::size_t> u_start_;
  AlignedVector<Index> u_idx_;
  AlignedVector<double> u_val_;
  // Transposed mirrors built once per factorization so BTRAN can run its
  // triangular solves in PUSH form, skipping all work below a zero — the
  // simplex feeds BTRAN near-singleton inputs (a lone nonzero objective
  // entry, the e_r pricing row), and the pull form paid the full O(nnz)
  // regardless.
  // Row j of U above the diagonal: (position k > j, u_jk).
  std::vector<std::size_t> ur_start_;
  AlignedVector<Index> ur_idx_;
  AlignedVector<double> ur_val_;
  // ltrans row of original row r: (target original row = pivot_row_[k], l)
  // for every column k of L containing r — where r's final L^T value pushes.
  std::vector<std::size_t> lt_start_;
  AlignedVector<Index> lt_idx_;
  AlignedVector<double> lt_val_;
  AlignedVector<double> diag_;  // u_kk

  // Eta file, SoA: eta e pivots at position eta_r_[e] with pivot value
  // eta_pivot_[e]; its off-pivot terms live at [eta_start_[e],
  // eta_start_[e + 1]), in ascending position order.
  std::vector<std::size_t> eta_start_{0};
  std::vector<Index> eta_r_;
  std::vector<double> eta_pivot_;
  AlignedVector<Index> eta_idx_;
  AlignedVector<double> eta_val_;
  // The same terms as a sparse bitset, for BTRAN's intersection with its
  // running support: eta e's nonempty 64-position words are
  // [eta_word_start_[e], eta_word_start_[e + 1]) of eta_words_. A word's
  // set bits are its terms' positions; `first` is the eta_idx_ offset of
  // its lowest, so the term at bit b sits at first + popcount(bits below b).
  struct EtaWord {
    std::size_t first = 0;
    std::uint64_t bits = 0;
    Index word = 0;
  };
  std::vector<std::size_t> eta_word_start_{0};
  std::vector<EtaWord> eta_words_;

  std::size_t factor_nnz_ = 0;
  std::size_t eta_nnz_ = 0;
};

}  // namespace ssco::lp
