#pragma once
// Sparse revised simplex — the double-precision regime of solve_simplex().
//
// Same two-phase algorithm and column layout as the dense tableau that still
// serves the num::Rational exact regime (lp/simplex.cpp), but the basis is
// held as a sparse LU factorization with product-form eta updates
// (lp/basis_lu.h) over a CSC copy of the expanded constraint matrix
// (lp/sparse.h):
//   * the entering variable comes from candidate-list Dantzig pricing
//     (Orchard-Hays multiple pricing: a full sweep keeps the most negative
//     reduced costs, later pivots reprice only that list against fresh
//     multipliers), with Bland's rule as the automatic degeneracy fallback;
//   * the pivot column comes from one hypersparse FTRAN, and the ratio
//     test, the basic-value update and the eta append walk only the
//     positions it returns;
//   * a pivot appends one eta vector; the basis is refactorized when the
//     eta-file fill rivals the LU factor fill (see should_refactor()),
//     which also recomputes the basic values and damps floating-point
//     drift.
// Per-iteration cost is one dense BTRAN, the pricing scan, and otherwise
// the nonzeros the pivot touches, instead of the dense tableau's
// O(m * cols).
//
// The constraint matrix is equilibrated at construction (lp/scaling.h,
// power-of-two geometric-mean factors, exactly undone on extraction); all
// tolerances therefore apply in the scaled space, which is the point —
// heterogeneous-platform models mix coefficient magnitudes across many
// orders.
//
// The engine class is exposed here (not just the solve_* driver) because
// three drivers share its start, replay and extract steps: the cold solve
// (cold_start() from the slack/artificial identity, then phase 2), the
// incremental re-solve (lp/dual_simplex.h: replay() loads a caller-supplied
// basis and runs the dual simplex until it is primal feasible again, then
// optimize() finishes with the ordinary primal phase 2) and column
// generation (lp/colgen.cpp), which keeps one engine alive across rounds.
// extract() reads any of them out at the optimum. Columns additionally
// carry an upper bound so the dual ratio test can bound-flip (and so
// completion artificials are fixed at 0); the primal pricing loop ignores
// bounds, which is sound because the warm-start driver never hands it a
// basis with a boxed column parked at its upper bound.
//
// Column generation drives one more entry point: append_column() grows the
// matrix by a structural column AFTER the identity blocks (so no existing
// column index — and no basis position — moves), leaves the LU factors and
// basic values untouched, and the next optimize() call resumes primal
// phase 2 from the current basis. A primal-feasible basis stays primal
// feasible under a column append (the new column enters nonbasic at zero),
// which is exactly the restricted-master iteration: no phase 1, no
// refactorization, just more columns to price.
//
// The result honours the full SimplexResult<double> contract — primal,
// duals in the original row sign convention, and the final BasisColumn
// basis that ExactSolver's certificate paths consume.

#include <cstdint>
#include <optional>
#include <vector>

#include "lp/aligned.h"
#include "lp/basis_lu.h"
#include "lp/column_layout.h"
#include "lp/simplex.h"
#include "lp/sparse.h"

namespace ssco::lp {

[[nodiscard]] SimplexResult<double> solve_revised_simplex(
    const ExpandedModel& em, const SimplexOptions& options);

class RevisedSimplex {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Reduced-cost / ratio-test tolerances, matching the dense double tableau.
  static constexpr double kEps = 1e-9;
  /// Absolute tie window of the ratio test.
  static constexpr double kTieTol = 1e-10;
  /// Basic values / primal noise below this snap to zero.
  static constexpr double kZeroTol = 1e-12;
  /// Feasibility threshold on the phase-1 artificial residual; also the
  /// primal-infeasibility threshold of the dual simplex leaving test.
  static constexpr double kFeasTol = 1e-7;
  /// A pivot whose leaving value (primal) or ratio (dual) is below this
  /// counts as degenerate.
  static constexpr double kDegenTol = 1e-10;
  /// Eta-update count below which refactorization is never considered and
  /// hard cap at which it always happens; between the two, the trigger is
  /// eta fill exceeding LU factor fill (adaptive — sparse etas on a big
  /// factorization run much longer than the old fixed period of 96).
  static constexpr std::size_t kMinRefactorInterval = 24;
  static constexpr std::size_t kMaxRefactorInterval = 256;

  explicit RevisedSimplex(const ExpandedModel& em)
      : RevisedSimplex(em, false) {}
  /// `defer_initial_factor` skips LU-factoring the slack/artificial identity
  /// start — the warm path discards it immediately via load_basis(), which
  /// factors its own selection. The engine reports !ok() until then.
  RevisedSimplex(const ExpandedModel& em, bool defer_initial_factor)
      : RevisedSimplex(em, ColumnLayout::from(em), defer_initial_factor) {}
  /// Takes a prebuilt layout (must equal ColumnLayout::from(em)) so callers
  /// that already computed one — the warm-start mapping — don't pay twice.
  RevisedSimplex(const ExpandedModel& em, ColumnLayout layout,
                 bool defer_initial_factor);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool has_artificials() const {
    return layout_.has_artificials();
  }
  [[nodiscard]] const ColumnLayout& layout() const { return layout_; }

  [[nodiscard]] std::vector<double> phase1_costs() const;
  /// Objective costs in the engine's SCALED space — the vector every
  /// optimize()/dual_optimize()/extract_duals()/objective_value() call
  /// expects. objective_value() is scale-invariant, so it reports the true
  /// (unscaled) objective.
  [[nodiscard]] std::vector<double> phase2_costs() const;

  /// Primal simplex pivot loop for the given column costs, from the current
  /// (primal-feasible) basis.
  SolveStatus optimize(const std::vector<double>& cost,
                       const SimplexOptions& opt, std::size_t& iterations);

  /// Cold start from the slack/artificial identity: phase 1 when some
  /// artificial starts infeasible, then expel_artificials(). kOptimal leaves
  /// a primal-feasible basis for phase 2; kInfeasible (phase-1 residual
  /// above kFeasTol) and kIterationLimit (also: the identity did not
  /// factor) are final.
  SolveStatus cold_start(const SimplexOptions& opt, std::size_t& iterations);

  /// Warm replay of a basis (expanded column indices, one per row):
  /// load_basis(), shift costs to dual feasibility (make_dual_feasible;
  /// the count lands in `cost_shifts`), then dual_optimize() under `opt`.
  /// Returns the dual loop's status — kOptimal means primal feasible for
  /// the shifted costs — or kIterationLimit when the basis does not load.
  SolveStatus replay(const std::vector<std::size_t>& columns,
                     const SimplexOptions& opt, std::size_t& iterations,
                     std::size_t& cost_shifts);

  /// Extract at an optimum for `cost`: refresh(), then the primal, duals,
  /// objective, basis and phase times into `result` with status kOptimal;
  /// kIterationLimit (phase times only) when the refreshed factorization
  /// fails.
  void extract(const std::vector<double>& cost, SimplexResult<double>& result);

  /// Refactorizes and recomputes the basic values — called once at the
  /// optimum so the extracted primal/duals come from a fresh factorization
  /// instead of through the accumulated eta file (tighter values make the
  /// rational reconstruction of the certificate far more likely to land).
  /// A basis with no absorbed updates is already fresh.
  void refresh();

  /// Sum of basic artificial values (the phase-1 residual, scaled space).
  [[nodiscard]] double infeasibility() const;

  /// After a feasible phase 1, drive basic artificials out of the basis
  /// wherever a non-artificial column can replace them; artificials stuck in
  /// redundant rows stay basic at value zero (and are barred from entering).
  void expel_artificials();

  [[nodiscard]] std::vector<double> extract_primal() const;
  [[nodiscard]] double objective_value(const std::vector<double>& cost) const;
  /// Duals in the sign convention of the ORIGINAL (unflipped) rows; valid at
  /// the phase-2 optimum (the multipliers of the last compute_multipliers).
  [[nodiscard]] std::vector<double> extract_duals(
      const std::vector<double>& cost);
  [[nodiscard]] std::vector<BasisColumn> extract_basis() const;

  /// FTRAN/BTRAN/pricing/factorization wall-clock accumulated over every
  /// loop run on this engine.
  [[nodiscard]] const SolvePhaseTimes& phase_times() const { return times_; }

  // --- Warm-start / dual-simplex extensions (defined in dual_simplex.cpp) --

  /// Replaces the current basis with the given column selection (one column
  /// per row, duplicates rejected) and refactorizes. All nonbasic columns
  /// are reset to their lower bound. Returns false — leaving the engine
  /// unusable — when the selection is malformed or numerically singular.
  [[nodiscard]] bool load_basis(const std::vector<std::size_t>& columns);

  /// Sets the upper bound of a column ([0, ub] in ORIGINAL units; ub == 0
  /// fixes the column at zero, which is how completion artificials are
  /// neutralized). Bounds are honoured by the DUAL pivot loop only; see the
  /// file comment. Call only while `col` is nonbasic at its lower bound —
  /// i.e. set bounds up front, before load_basis()/dual_optimize() — a
  /// mid-solve change would leave the cached basic values stale (asserted
  /// in debug builds).
  void set_column_upper_bound(std::size_t col, double ub);

  /// Shifts costs down (at-lower) or up (at-upper) wherever the current
  /// basis is dual infeasible, making it dual feasible by construction.
  /// Returns the number of shifted columns. `cost` is modified in place.
  std::size_t make_dual_feasible(std::vector<double>& cost);

  /// Dual simplex pivot loop: from a dual-feasible basis, restores primal
  /// feasibility (kOptimal for the given costs). Leaves on the largest
  /// violation and uses the bound-flipping dual ratio test; switches to a
  /// Bland-style rule after a degenerate run. kInfeasible means the PRIMAL
  /// is infeasible (dual unbounded).
  SolveStatus dual_optimize(const std::vector<double>& cost,
                            const SimplexOptions& opt,
                            std::size_t& iterations);

  /// Largest violation of [0, ub] over the basic values (scaled space).
  [[nodiscard]] double primal_infeasibility() const;

  /// True when some non-fixed boxed column is parked at its upper bound —
  /// the one state the primal pricing loop must not be handed.
  [[nodiscard]] bool has_boxed_at_upper() const;

  // --- Column generation (defined in revised_simplex.cpp) -----------------

  /// Appends a structural column for expanded variable `var`, which must
  /// already have been appended to the ExpandedModel this engine was built
  /// from (zero lower bound, no upper bound — ExpandedModel::append_column's
  /// contract). `entries` are (expanded row, coefficient) pairs. The column
  /// arrives nonbasic at zero: basis, LU factors and basic values are
  /// untouched, so optimize() resumes from the current vertex. Returns the
  /// engine column index.
  std::size_t append_column(
      std::size_t var,
      const std::vector<std::pair<std::size_t, Rational>>& entries);

  /// Engine column representing expanded variable `var` (identity for
  /// build-time variables, past the artificial block for appended ones).
  [[nodiscard]] std::size_t column_of_var(std::size_t var) const {
    return var < build_num_vars_ ? var
                                 : appended_cols_[var - build_num_vars_];
  }

  /// Appends an EMPTY expanded row (row generation), which must already have
  /// been appended to the ExpandedModel via ExpandedModel::append_row. Only
  /// rows whose identity start is feasible at zero activity are accepted —
  /// <= with rhs >= 0 (slack basic at rhs), == with rhs == 0 (artificial
  /// basic at zero, barred behind its zero upper bound), >= with rhs <= 0
  /// (flipped to <=) — which is exactly the lazily-activated-row shape of
  /// lp/colgen.h: an inactive row is satisfied by the zero extension, so
  /// activating it cannot disturb primal feasibility. The current basis
  /// extends block-diagonally (BasisLu::append_identity_row), so no
  /// refactorization, no phase 1, and optimize() resumes from the current
  /// vertex. Returns false — engine untouched — for any other sense/rhs
  /// combination; the caller falls back to a from-scratch solve.
  bool append_row(Sense sense, const Rational& rhs);

 private:
  [[nodiscard]] bool is_artificial(std::size_t col) const {
    return col != kNone && layout_.is_artificial(col);
  }

  /// y_ = B^-T c_B (row space): the simplex multipliers for `cost`.
  void compute_multipliers(const std::vector<double>& cost);
  /// Candidate-list (multiple-pricing) Dantzig candidate (needs fresh
  /// multipliers in y_).
  [[nodiscard]] std::size_t pick_dantzig(const std::vector<double>& cost);
  /// Bland candidate: first negative reduced cost in index order (needs
  /// fresh multipliers in y_).
  [[nodiscard]] std::size_t pick_bland(const std::vector<double>& cost);
  /// alpha_r = rho' A computed row-major over rho's nonzeros only: fills
  /// alpha_ for the columns in touched_cols_ (previous contents cleared).
  /// Much cheaper than a per-column dot pass while rho is sparse — which,
  /// fresh after a refactorization, it usually is.
  void compute_pivot_row(const std::vector<double>& rho);
  /// Builds the CSR mirror on first compute_pivot_row use.
  void ensure_row_mirror();
  void pivot(std::size_t r, std::size_t e, const Support& nonzeros);
  [[nodiscard]] bool refactor();
  [[nodiscard]] bool should_refactor() const;

  /// Flips nonbasic column j to the opposite bound and folds the jump into
  /// the basic values (one FTRAN). Dual-loop helper.
  void flip_bound(std::size_t j);

  /// work_ = B^-1 A_j (position space) through one timed sparse FTRAN.
  /// work_ must be all zero on entry; returns the positions where it may
  /// be nonzero, through which the caller zeroes it again (clear_work)
  /// before the next FTRAN.
  const Support& ftran_column(std::size_t j);
  void clear_work(const Support& nonzeros);
  /// Timed BTRAN (accumulates into times_).
  void timed_btran(std::vector<double>& x);

  const ExpandedModel& em_;
  ColumnLayout layout_;
  CscMatrix A_;
  std::size_t m_ = 0;
  std::size_t num_cols_ = 0;
  /// Structural count at construction; variables past it were appended by
  /// column generation and live at appended_cols_[var - build_num_vars_].
  std::size_t build_num_vars_ = 0;
  std::vector<std::size_t> appended_cols_;
  std::vector<bool> barred_;
  std::vector<double> rhs_;
  std::vector<double> ub_;        // per-column upper bound (inf = unbounded)
  std::vector<bool> at_upper_;    // nonbasic-at-upper-bound marker
  std::vector<double> xb_;        // basic values, position space
  std::vector<std::size_t> basis_;       // position -> column
  std::vector<std::size_t> pos_of_col_;  // column -> position or kNone
  std::optional<BasisLu> lu_;
  bool ok_ = false;
  std::vector<double> y_;     // simplex multipliers, row space
  std::vector<double> work_;  // FTRAN'd column; all zero between pivots
  std::vector<std::size_t> work_rows_;  // nonzero rows of its column
  std::vector<double> rho_;   // BTRAN scratch (pricing row / expel / dual)
  BasisLu::Workspace lu_ws_;  // caller-owned FTRAN/BTRAN workspace
  // Equilibration state: scaled value = original * row_scale * col_scale;
  // identity vectors when scaling is a no-op.
  std::vector<double> row_scale_;
  std::vector<double> col_scale_;  // full column space (slacks/artificials
                                   // carry 1/row_scale so they stay ±1)
  // Row-major copy of A_ for pivot-row computation (CSR, including the
  // slack/artificial identity entries), stored SoA — 32-bit column ids and
  // cache-line-aligned values — so the alpha accumulation pass streams two
  // flat arrays instead of 16-byte pairs.
  std::vector<std::size_t> row_start_;
  AlignedVector<std::int32_t> row_cols_;
  AlignedVector<double> row_vals_;
  // Pivot-row scratch: alpha_ holds values for the columns listed in
  // touched_cols_; zeroed again after each use.
  std::vector<double> alpha_;
  std::vector<char> alpha_seen_;
  std::vector<std::size_t> touched_cols_;
  // Multiple-pricing candidate list (valid within one optimize() run).
  std::vector<std::size_t> candidates_;
  std::vector<double> candidate_d_;
  mutable SolvePhaseTimes times_;
};

}  // namespace ssco::lp
