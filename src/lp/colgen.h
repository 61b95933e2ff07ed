#pragma once
// Delayed column generation — restricted masters over an implicit model.
//
// The reduce-family LPs (core/reduce_lp.cpp, core/prefix_lp.cpp) are
// quadratic by construction: one send variable per (adjacent interval,
// edge) plus merge-task placements puts ~50k columns into an n=256 model
// whose optimum touches a few hundred of them. Column generation never
// materializes the rest. The pieces:
//
//  * the RESTRICTED MASTER is an ordinary lp::Model holding ALL rows of the
//    full model but only a seed subset of its columns (heuristic plans make
//    good seeds). Row parity is what makes the mathematics work: a master
//    solution extended with zeros is feasible for the full model, and the
//    master's duals price every absent column;
//  * the PricingOracle knows the implicit column set structurally. Each
//    round it prices absent columns against the master's duals in one
//    structured pass and returns the most violated ones;
//  * the driver (ExactSolver::solve_colgen, implemented here) appends those
//    columns to the master, the expanded model and the live revised-simplex
//    engine — which resumes primal phase 2 from its current basis: a column
//    append leaves a primal-feasible basis primal feasible, so there is no
//    phase 1 and no refactorization, just more columns to price (the
//    classic restricted-master iteration);
//  * termination is EXACT: once float pricing finds nothing, the usual
//    certificate ladder proves the restricted master optimal in rational
//    arithmetic, and one exact-rational pricing sweep over the implicit set
//    proves every never-materialized column has non-negative reduced cost.
//    Together that is a bit-exact optimality certificate for the COMPLETE
//    model — `certified == true` never means "optimal for the columns we
//    happened to look at". A sweep that does find a violated column (float
//    duals can be degenerate) appends it and re-enters the loop, so the
//    float pricing pass is an accelerator, never a correctness assumption;
//  * every inconclusive outcome (master infeasible — which proves nothing
//    about the full model, columns can restore feasibility —, stalled or
//    budget-exhausted loops, uncertifiable masters) falls back to
//    materializing the full model and running the dense ExactSolver paths.
//
// Generated columns are appended in a deterministic order (violation, then
// name) and keyed by the same names a dense build would use, so warm-start
// snapshots (lp/warm_start.h) and plan-service basis caches map exactly
// onto colgen-built models and vice versa.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lp/exact_solver.h"
#include "lp/model.h"

namespace ssco::lp {

/// One column of the implicit model, priced out by an oracle. Zero lower
/// bound, no upper bound — both load-bearing: the column enters the master
/// nonbasic at zero without disturbing primal feasibility, and no bound row
/// is materialized, so the row space (and any live basis over it) keeps its
/// dimension.
struct GeneratedColumn {
  /// Deterministic, model-unique name — the key under which warm-start
  /// snapshots keep mapping; must equal what a dense build of the full
  /// model would call this variable.
  std::string name;
  Rational objective;
  /// (model row index, coefficient), rows strictly increasing.
  std::vector<std::pair<std::size_t, Rational>> entries;
  /// Oracle-private identity, handed back verbatim through added() so the
  /// oracle can update its presence bookkeeping without parsing names.
  std::uint64_t tag = 0;
};

/// One row of the implicit model, activated lazily by the driver under row
/// generation (see PricingOracle::full_row_count): the name/sense/rhs a
/// dense build of the full model would give the row. Only zero-feasible
/// rows — satisfied when every column is zero — can be activated into a
/// live master without disturbing primal feasibility; the driver falls back
/// to the dense path on any other shape.
struct GeneratedRow {
  std::string name;
  Sense sense = Sense::kLessEqual;
  Rational rhs;
};

/// Structural description of the implicit column set. Implementations own
/// the presence bookkeeping: a column is ABSENT until the driver reports it
/// appended via added(); emitting a column from price()/price_exact() does
/// NOT mark it present (the driver may pool it for a later round).
class PricingOracle {
 public:
  virtual ~PricingOracle() = default;

  /// Columns of the FULL model, materialized or not.
  [[nodiscard]] virtual std::size_t total_columns() const = 0;

  /// Float pricing pass: appends to `out` up to `max_columns` absent
  /// columns with reduced cost (A'y - c) below -tolerance against duals
  /// `y` (one per MODEL row, SimplexResult sign convention), most violated
  /// first, ties broken deterministically by name.
  virtual void price(const std::vector<double>& y, double tolerance,
                     std::size_t max_columns,
                     std::vector<GeneratedColumn>& out) = 0;

  /// Exact pricing sweep over the same absent set: appends up to
  /// `max_columns` columns whose EXACT reduced cost is negative. Leaving
  /// `out` empty is a proof that every absent column prices non-negative —
  /// the step that extends a restricted-master certificate to the full
  /// model, so implementations must sweep the entire absent set before
  /// returning nothing.
  virtual void price_exact(const std::vector<Rational>& y,
                           std::size_t max_columns,
                           std::vector<GeneratedColumn>& out) = 0;

  /// The driver appended `column` to the master as variable `var`; treat it
  /// as present from now on.
  virtual void added(const GeneratedColumn& column, VarId var) = 0;

  /// Materializes every still-absent column — the driver's dense-fallback
  /// completion.
  virtual void materialize_all(std::vector<GeneratedColumn>& out) = 0;

  // --- Row generation (optional) ------------------------------------------
  // An oracle that also generates ROWS starts the master with only the rows
  // its seed columns touch; the driver activates further rows the moment a
  // materialized column first references them. The invariant that makes the
  // mathematics work swaps sides: instead of "the master holds every row",
  // it is "every MATERIALIZED column's support lies in active rows", so a
  // master solution still extends to the full model — by zeros over absent
  // columns AND inactive rows (each inactive row must hold at zero activity,
  // which the driver verifies before claiming a certificate) — and master
  // duals lifted with zeros at inactive rows still price every absent
  // column exactly.

  /// Rows of the FULL model. A nonzero return switches the row space of
  /// every emitted GeneratedColumn::entries (price / price_exact /
  /// materialize_all) to FULL row ids; the driver owns the full-to-master
  /// translation and passes pricing duals in full row space (zeros at
  /// inactive rows). 0 — the default — means the master holds every row and
  /// entries are master row ids.
  [[nodiscard]] virtual std::size_t full_row_count() const { return 0; }

  /// Spec of one full-model row, exactly as the dense model has it (names
  /// keep warm starts portable across dense and colgen builds).
  /// Only called when full_row_count() != 0.
  [[nodiscard]] virtual GeneratedRow row_spec(std::size_t full_row) const {
    (void)full_row;
    return {};
  }

  /// Full row id behind each master row of the freshly built master, in
  /// master row order — the initial activation set. build_master-style
  /// construction must have activated exactly the rows its materialized
  /// columns touch. Only called when full_row_count() != 0.
  [[nodiscard]] virtual std::vector<std::size_t> master_row_origins() const {
    return {};
  }

  /// Offers the solve's Parallel handle (lp/parallel.h) before the pricing
  /// loop starts. Implementations MAY shard their price()/price_exact()
  /// scans across it, PROVIDED the emitted column list stays bit-identical
  /// to their serial scan (deterministic shard merge); the default ignores
  /// it. The handle outlives the solve — oracles may keep a copy.
  virtual void set_parallel(const Parallel& parallel) { (void)parallel; }
};

struct ColGenOptions {
  /// Columns appended to the master per round. Doubles after a few
  /// objective-stagnant rounds (degenerate colgen tails shrink with bigger
  /// batches), so the effective batch adapts to the instance.
  std::size_t batch = 512;
  /// Wentges dual smoothing: pricing rounds price against
  ///   y~ = stabilization * y_center + (1 - stabilization) * y,
  /// where y_center is the dual vector of the best master objective seen so
  /// far. Degenerate masters emit wildly oscillating duals round over round;
  /// smoothing towards a proven-good center keeps the generated columns
  /// relevant and cuts the tailing-off plateau. A smoothed round that prices
  /// clean is immediately re-priced at the TRUE duals (the classic misprice
  /// guard), and the exact sweep always runs at exact duals, so neither
  /// termination nor the certificate ever depends on the smoothing. 0
  /// disables.
  double stabilization = 0.8;
};

}  // namespace ssco::lp
