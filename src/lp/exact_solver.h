#pragma once
// Exact LP solving with a floating-point warm start.
//
// The paper's pipeline needs *exact rational* optimal solutions: periods are
// LCMs of solution denominators (Sec. 3.1), reduction-tree weights must
// reconstitute the solution exactly (Theorem 1), and the asymptotic-
// optimality argument compares against the exact LP value. Solving a few
// thousand-variable LP purely in rational arithmetic is slow, so we use the
// classic certify-after-float scheme (as in QSopt_ex / exact SCIP):
//
//   1. solve in double precision with the sparse revised simplex
//      (lp/revised_simplex.h): warm from the SolveContext's basis through
//      the dual simplex when it holds one (lp/dual_simplex.h); cold on the
//      full model otherwise, or when the warm optimum does not certify.
//      Column generation (lp/colgen.h) solves a growing restricted master
//      instead;
//   2. run the certificate ladder on the float optimum:
//      a. round primal and duals to rationals by continued fractions
//         (num/reconstruct.h) at a growing denominator cap, and verify an
//         exact optimality certificate — primal feasibility, dual
//         feasibility and c'x == b'y (weak duality turns that equality into
//         a proof of optimality);
//      b. when rounding fails (degenerate vertices with huge denominators),
//         recover the exact basic solution from the final basis — solve
//         B x_B = b and B' y = c_B by double LU + exact iterative refinement
//         + rational reconstruction (lp/exact_basis.h) — and verify the
//         same certificate;
//      the first verified pair is the result; under column generation it
//      is the master's pair, which an exact pricing sweep then extends to
//      the implicit model;
//   3. when every rung fails, or the float pass ends infeasible, unbounded
//      or at its iteration limit, solve with the exact rational simplex
//      (the one exact rung).
//
// The result is bit-exact; `method` names the path that proved it.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lp/model.h"
#include "lp/parallel.h"
#include "lp/simplex.h"
#include "lp/warm_start.h"

namespace ssco::lp {

/// One restricted-master round of a column-generation solve (lp/colgen.h):
/// master size when the round priced, pivots it spent, and the float
/// objective it reached — the growth curve the examples/ walkthrough plots.
struct ColGenRoundStat {
  std::size_t columns = 0;
  std::size_t pivots = 0;
  double objective = 0.0;
};

/// Column-generation telemetry of one solve (lp/colgen.h); all zero for
/// dense solves.
struct ColGenRecord {
  std::size_t rounds = 0;
  /// `columns_total` counts the IMPLICIT full model's columns, so total -
  /// seeded - generated columns were priced out without ever being
  /// materialized.
  std::size_t columns_seeded = 0;
  std::size_t columns_generated = 0;
  std::size_t columns_total = 0;
  /// Row generation: rows of the implicit full model and how many the
  /// master had activated when the loop ended. Both zero when the oracle
  /// does not generate rows (then the master always holds every row).
  std::size_t rows_active = 0;
  std::size_t rows_total = 0;
  /// Pricing rounds that priced at Wentges-smoothed duals
  /// (ColGenOptions::stabilization).
  std::size_t stab_rounds = 0;
  /// Per-round trace of the restricted master's growth.
  std::vector<ColGenRoundStat> round_log;
};

struct ExactSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Exact optimal objective value (valid when status == kOptimal).
  Rational objective;
  /// Exact optimal point in the ORIGINAL variable space of the Model.
  std::vector<Rational> primal;
  /// Exact duals per expanded row (model rows first, bound rows after;
  /// under row generation, per row of the implicit full model), filled on
  /// every optimal path.
  std::vector<Rational> dual;
  /// True when optimality was proven by an exact primal/dual certificate or
  /// by the exact simplex itself.
  bool certified = false;
  /// The path that produced the result: "double+certificate",
  /// "double+basis-verification" or "double+exact-simplex" after a float
  /// optimum; "exact-simplex" when the float pass ended infeasible,
  /// unbounded or at its iteration limit; "colgen+certificate",
  /// "colgen+basis-verification" or "colgen+exact-simplex" from column
  /// generation, and "colgen-fallback+" before the dense method when it
  /// fell back to the materialized full model. solve_exact_simplex reports
  /// "exact-simplex".
  std::string method;
  std::size_t float_iterations = 0;
  std::size_t exact_iterations = 0;
  /// True when the float pass was a warm re-solve from a previous basis
  /// (lp/dual_simplex.h) instead of a cold two-phase solve.
  bool warm_started = false;
  ColGenRecord colgen;
  /// FTRAN/BTRAN/pricing/factorization split of the float engine work this
  /// solve performed (warm attempt + cold pass combined).
  SolvePhaseTimes phase_times;
};

/// Carries warm-start state between consecutive solves: after a successful
/// solve the optimal basis is snapshotted into `warm` (keyed by names, so a
/// rebuilt model maps it back — lp/warm_start.h); the next solve made with
/// the same context replays it through the dual simplex. A default
/// constructed context is an empty (cold) one.
struct SolveContext {
  WarmStart warm;
  /// Per-request thread-budget override: 0 = use ExactSolverOptions::
  /// threads. The plan service sets this so that num_workers concurrent
  /// cold solves cannot oversubscribe the shared pool (each request gets
  /// roughly hardware / num_workers shards).
  std::size_t threads = 0;
  /// Telemetry of the most recent solve() made with this context.
  bool warm_attempted = false;
  bool warm_used = false;
  std::size_t cost_shifts = 0;
};

struct ExactSolverOptions {
  /// Thread budget for the parallel column loops — certificate
  /// verification, exact basis recovery, colgen pricing sweeps
  /// (lp/parallel.h). 0 = all hardware threads, 1 = fully serial. Results
  /// are bit-identical at every setting (the fabric's determinism
  /// contract), so this is purely a wall-clock knob. Shards run on the
  /// process-wide shared pool unless `pool` overrides it.
  std::size_t threads = 0;
  /// Pool override, mainly for tests that want a private pool of a given
  /// size; null = ThreadPool::shared(). Not owned; must outlive the solver.
  ThreadPool* pool = nullptr;
  SimplexOptions simplex;
};

/// Thread-safety contract:
///  * An ExactSolver is immutable after construction; solve() is const and
///    re-entrant, so one solver may run any number of concurrent solves.
///  * Each solve may itself be INTERNALLY parallel: the certificate
///    verification and pricing sweeps shard across the process-wide
///    ThreadPool (lp/parallel.h) under the solve's thread budget
///    (ExactSolverOptions::threads, overridable per request via
///    SolveContext::threads). Shards touch only solve-local state — each
///    carries its own BasisLu::Workspace and rational scratch — so
///    concurrent solves sharing the pool never share mutable data, and a
///    request's budget bounds its concurrency (the plan service budgets
///    hardware / num_workers per request so cold-solve parallelism cannot
///    oversubscribe the pool).
///  * Each concurrent solve must use its OWN SolveContext (or none) — a
///    SolveContext is the single-threaded warm-start thread of one request
///    stream, and sharing one across threads is a data race.
///  * Per-solve statistics are returned by value in ExactSolution; every
///    finished solve also lands in obs::Registry::global() (the solver_*
///    counters and per-phase histograms), one Registry::Batch per solve.
///  * Results are BIT-IDENTICAL at every thread budget: shard boundaries
///    are deterministic and merges are ordered (exact rational partials are
///    grouping-invariant; float candidate lists merge in serial scan
///    order). See DESIGN.md "Parallel solve fabric".
struct ColGenOptions;   // lp/colgen.h
class PricingOracle;    // lp/colgen.h

class ExactSolver {
 public:
  explicit ExactSolver(ExactSolverOptions options = {})
      : options_(std::move(options)) {}

  /// Maximizes the model's objective. Throws std::runtime_error only on
  /// internal invariant violations; infeasible/unbounded models are reported
  /// through `status`.
  [[nodiscard]] ExactSolution solve(const Model& model) const;

  /// Same, threading warm-start state through `context` (may be null): a
  /// non-empty context basis warm-starts the float pass via the dual
  /// simplex, and the new optimal basis is written back on success. The
  /// certificate paths are identical to the cold solve — a warm start can
  /// cost a fallback, never a wrong answer.
  [[nodiscard]] ExactSolution solve(const Model& model,
                                    SolveContext* context) const;

  /// Delayed column generation against the implicit model the oracle
  /// describes (lp/colgen.h, defined in colgen.cpp): `master` holds the
  /// restricted master — ALL rows of the full model, a seed subset of its
  /// columns — and GROWS as pricing finds violated columns. `certified ==
  /// true` still means bit-exact optimality of the COMPLETE model: on top
  /// of the restricted certificate, one exact-rational pricing sweep proves
  /// every never-materialized column has non-negative reduced cost. Falls
  /// back to materializing the full model (correctness is never entrusted
  /// to the float pricing loop).
  [[nodiscard]] ExactSolution solve_colgen(Model& master,
                                           PricingOracle& oracle,
                                           const ColGenOptions& colgen,
                                           SolveContext* context = nullptr) const;

  /// Verifies an exact primal/dual optimality certificate for the expanded
  /// model: returns true iff `x` is primal feasible, `y` is dual feasible,
  /// and c'x == b'y (all exact). `parallel` shards the per-row feasibility
  /// checks and the per-column reduced-cost checks; the verdict is the same
  /// at every budget, because every check is independent.
  [[nodiscard]] static bool verify_certificate(const ExpandedModel& em,
                                               const std::vector<Rational>& x,
                                               const std::vector<Rational>& y,
                                               const Parallel& parallel = {});

  [[nodiscard]] const ExactSolverOptions& options() const { return options_; }

 private:
  friend ExactSolution solve_exact_simplex(const Model& model,
                                           const SimplexOptions& options);

  /// The certificate ladder on a float-OPTIMAL SimplexResult for `em`:
  /// rational reconstruction of the float primal/dual pair at each
  /// denominator cap (2^12, 2^20, 2^26), clamped and verified, then exact
  /// recovery from the optimal basis (lp/exact_basis.h), verified. The
  /// first verified pair fills `out` as an exact optimum (objective, the
  /// unshifted primal, dual, certified) with method `label` + the rung
  /// ("certificate" or "basis-verification") and the ladder returns true;
  /// false when every rung failed. Shared by the cold, warm and
  /// column-generation paths.
  [[nodiscard]] static bool certify_float_result(
      const ExpandedModel& em, const SimplexResult<double>& fp,
      const std::string& label, ExactSolution& out, const Parallel& parallel);

  /// The exact rung: solves `em` with the rational simplex and records it
  /// in `out` — exact pivots added, status and `method`, and the exact
  /// optimum when it reaches one. Returns the final basis (empty unless
  /// optimal).
  static std::vector<BasisColumn> solve_exact_rung(
      const ExpandedModel& em, const SimplexOptions& options,
      std::string method, ExactSolution& out);

  [[nodiscard]] ExactSolution solve_impl(const Model& model,
                                         SolveContext* context) const;
  /// Resolves this solve's Parallel handle: the context's thread budget if
  /// set, else the options', on the injected pool or the shared one.
  [[nodiscard]] Parallel solve_parallel(const SolveContext* context) const;
  /// Simplex options of a warm replay: the pivot budget before giving up
  /// and going cold is 2m + 100 for an m-row expanded model. A stale basis
  /// on a heavily mutated platform can cost more pivots than a cold solve;
  /// the budget bounds the downside of trying.
  [[nodiscard]] SimplexOptions warm_options(std::size_t rows) const {
    SimplexOptions o = options_.simplex;
    o.max_iterations = std::min(o.max_iterations, 2 * rows + 100);
    return o;
  }
  /// Resolves the context's warm basis against `em` (map_warm_basis) under
  /// the column layout it builds into `layout`, and records the attempt in
  /// the context; nullopt when the context holds no basis or it does not
  /// map.
  [[nodiscard]] static std::optional<std::vector<std::size_t>> warm_columns(
      SolveContext* context, const Model& model, const ExpandedModel& em,
      ColumnLayout& layout);
  /// Adds one finished solve to the process-wide registry (shared by
  /// solve() and solve_colgen()).
  static void record_solve(const ExactSolution& solution,
                           const SolveContext* context);

  ExactSolverOptions options_;
};

/// Convenience: solve `model` purely with the exact rational simplex
/// (no floating-point involved). Used as ground truth in tests.
[[nodiscard]] ExactSolution solve_exact_simplex(const Model& model,
                                                const SimplexOptions& options = {});

}  // namespace ssco::lp
