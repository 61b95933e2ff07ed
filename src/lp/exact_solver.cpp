#include "lp/exact_solver.h"

#include <atomic>
#include <optional>
#include <stdexcept>
#include <utility>

#include "lp/column_layout.h"
#include "lp/dual_simplex.h"
#include "lp/exact_basis.h"
#include "num/reconstruct.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ssco::lp {

namespace {

/// Denominator caps the ladder's rational reconstruction tries, in order.
constexpr std::uint64_t kDenominatorCaps[] = {1u << 12, 1u << 20, 1u << 26};

/// Shard granularity of the certification loops: each item is big-int
/// rational work, so fairly fine shards still amortize the fork.
constexpr std::size_t kMinCertifyPerShard = 16;

/// Reconstruction tolerance: |rounded - double| must be below this.
constexpr double kReconstructTolerance = 1e-6;

/// Rounds every entry of `values` to a rational with denominator <= cap;
/// returns nullopt when any entry fails the kReconstructTolerance test.
/// Entries are independent, so the sharded fill is bit-identical to the
/// serial scan.
std::optional<std::vector<Rational>> reconstruct_vector(
    const std::vector<double>& values, std::uint64_t cap,
    const Parallel& par) {
  std::vector<Rational> out(values.size());
  const std::size_t shards = par.shard_count(values.size(), kMinCertifyPerShard);
  std::vector<ShardLocal<bool>> ok(shards);
  par.for_shards(values.size(), kMinCertifyPerShard,
                 [&](std::size_t shard, std::size_t begin, std::size_t end) {
                   bool all = true;
                   for (std::size_t i = begin; i < end && all; ++i) {
                     auto r = num::rational_near_double(
                         values[i], kReconstructTolerance, cap);
                     if (r) {
                       out[i] = std::move(*r);
                     } else {
                       all = false;
                     }
                   }
                   ok[shard].value = all;
                 });
  for (const auto& flag : ok) {
    if (!flag.value) return std::nullopt;
  }
  return out;
}

/// Recovers the EXACT primal/dual pair from the double solver's final basis:
/// solve B x_B = b and B' y = c_B exactly (lp/exact_basis.h) and verify the
/// certificate. Handles the degenerate optima whose vertex coordinates have
/// denominators far beyond what float reconstruction can recover.
struct BasisVerified {
  std::vector<Rational> primal;  // shifted space
  std::vector<Rational> dual;
};

std::optional<BasisVerified> verify_from_basis(
    const ExpandedModel& em, const std::vector<BasisColumn>& basis,
    const Parallel& par) {
  const std::size_t m = em.rows.size();
  if (basis.size() != m) return std::nullopt;

  // Column entries per structural variable, from the row-major model.
  std::vector<std::vector<std::pair<std::size_t, Rational>>> var_entries(
      em.num_vars);
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& [idx, coeff] : em.rows[i].coeffs) {
      var_entries[idx].emplace_back(i, coeff);
    }
  }
  auto flipped = [&em](std::size_t i) {
    return em.rows[i].rhs.is_negative();
  };

  SparseColumns b_matrix;
  b_matrix.n = m;
  b_matrix.cols.resize(m);
  std::vector<Rational> cost_basis(m, Rational(0));
  for (std::size_t k = 0; k < m; ++k) {
    switch (basis[k].kind) {
      case BasisColumn::Kind::kStructural:
        b_matrix.cols[k] = var_entries[basis[k].index];
        cost_basis[k] = em.objective[basis[k].index];
        break;
      case BasisColumn::Kind::kSlack:
        b_matrix.cols[k].emplace_back(
            basis[k].index, Rational(flipped(basis[k].index) ? -1 : 1));
        break;
      case BasisColumn::Kind::kSurplus:
        b_matrix.cols[k].emplace_back(
            basis[k].index, Rational(flipped(basis[k].index) ? 1 : -1));
        break;
      case BasisColumn::Kind::kArtificial:
        b_matrix.cols[k].emplace_back(
            basis[k].index, Rational(flipped(basis[k].index) ? -1 : 1));
        break;
    }
  }

  std::vector<Rational> rhs(m, Rational(0));
  for (std::size_t i = 0; i < m; ++i) rhs[i] = em.rows[i].rhs;

  // One shared LU: B x_B = b via FTRAN-refinement, B' y = c_B via BTRAN.
  auto solves = solve_sparse_exact_pair(b_matrix, rhs, cost_basis, par);
  if (!solves) return std::nullopt;

  BasisVerified out;
  out.primal.assign(em.num_vars, Rational(0));
  for (std::size_t k = 0; k < m; ++k) {
    if (basis[k].kind == BasisColumn::Kind::kStructural) {
      out.primal[basis[k].index] = solves->solution[k];
    }
  }
  out.dual = std::move(solves->transposed_solution);
  if (!ExactSolver::verify_certificate(em, out.primal, out.dual, par)) {
    return std::nullopt;
  }
  return out;
}

/// Fills `out` from an exact optimal pair of `em` (`x` in shifted space):
/// status kOptimal, objective c'x plus the shift constant, the unshifted
/// primal, the dual, certified, and `method`.
void set_exact_optimum(ExactSolution& out, const ExpandedModel& em,
                       const std::vector<Rational>& x, std::vector<Rational> y,
                       std::string method) {
  Rational obj(0);
  for (std::size_t j = 0; j < em.num_vars; ++j) {
    if (!em.objective[j].is_zero()) obj.add_product(em.objective[j], x[j]);
  }
  out.status = SolveStatus::kOptimal;
  out.objective = obj + em.objective_constant;
  out.primal = em.unshift(x);
  out.dual = std::move(y);
  out.certified = true;
  out.method = std::move(method);
}

}  // namespace

bool ExactSolver::verify_certificate(const ExpandedModel& em,
                                     const std::vector<Rational>& x,
                                     const std::vector<Rational>& y,
                                     const Parallel& parallel) {
  if (x.size() != em.num_vars || y.size() != em.rows.size()) return false;
  const std::size_t m = em.rows.size();

  // Sign conditions: x >= 0 (shifted space); <= rows need y >= 0, >= rows
  // need y <= 0.
  for (const Rational& xj : x) {
    if (xj.is_negative()) return false;
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (em.rows[i].sense == Sense::kLessEqual && y[i].is_negative())
      return false;
    if (em.rows[i].sense == Sense::kGreaterEqual && y[i].signum() > 0)
      return false;
  }

  // Primal feasibility, shard by shard over the rows. Every row check is
  // independent and the verdict is a conjunction, so no shard order can
  // change it; a failing row stops every shard early.
  std::atomic<bool> ok{true};
  parallel.for_shards(
      m, kMinCertifyPerShard,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        Rational lhs;
        for (std::size_t i = begin;
             i < end && ok.load(std::memory_order_relaxed); ++i) {
          lhs = Rational(0);
          for (const auto& [idx, coeff] : em.rows[i].coeffs) {
            lhs.add_product(coeff, x[idx]);
          }
          bool holds = true;
          switch (em.rows[i].sense) {
            case Sense::kLessEqual:
              holds = lhs <= em.rows[i].rhs;
              break;
            case Sense::kEqual:
              holds = lhs == em.rows[i].rhs;
              break;
            case Sense::kGreaterEqual:
              holds = lhs >= em.rows[i].rhs;
              break;
          }
          if (!holds) ok.store(false, std::memory_order_relaxed);
        }
      });
  if (!ok.load()) return false;

  // Dual feasibility, A'y >= c per variable (variables are >= 0 in expanded
  // space). Each shard owns a range of variables and scatters the rows'
  // entries that fall in it, in row order, so every sum is the one a serial
  // scatter forms; at one shard this IS the serial scatter.
  std::vector<Rational> aty(em.num_vars, Rational(0));
  parallel.for_shards(
      em.num_vars, kMinCertifyPerShard,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = 0; i < m; ++i) {
          if (y[i].is_zero()) continue;
          for (const auto& [idx, coeff] : em.rows[i].coeffs) {
            if (idx >= begin && idx < end) aty[idx].add_product(y[i], coeff);
          }
        }
        for (std::size_t j = begin;
             j < end && ok.load(std::memory_order_relaxed); ++j) {
          if (aty[j] < em.objective[j]) {
            ok.store(false, std::memory_order_relaxed);
          }
        }
      });
  if (!ok.load()) return false;

  // Strong duality at the candidate pair: c'x == b'y exactly.
  Rational primal_obj(0);
  for (std::size_t j = 0; j < em.num_vars; ++j) {
    if (!em.objective[j].is_zero()) primal_obj.add_product(em.objective[j], x[j]);
  }
  Rational dual_obj(0);
  for (std::size_t i = 0; i < m; ++i) {
    if (!y[i].is_zero()) dual_obj.add_product(y[i], em.rows[i].rhs);
  }
  return primal_obj == dual_obj;
}

ExactSolution ExactSolver::solve(const Model& model) const {
  return solve(model, nullptr);
}

bool ExactSolver::certify_float_result(const ExpandedModel& em,
                                       const SimplexResult<double>& fp,
                                       const std::string& label,
                                       ExactSolution& out,
                                       const Parallel& parallel) {
  for (std::uint64_t cap : kDenominatorCaps) {
    auto x = reconstruct_vector(fp.primal, cap, parallel);
    auto y = reconstruct_vector(fp.dual, cap, parallel);
    if (!x || !y) continue;
    // Clamp reconstruction noise: tiny negatives are infeasible exactly.
    for (Rational& v : *x) {
      if (v.is_negative()) v = Rational(0);
    }
    if (verify_certificate(em, *x, *y, parallel)) {
      set_exact_optimum(out, em, *x, std::move(*y), label + "certificate");
      return true;
    }
  }
  // Second rung: exact recovery from the optimal basis (degenerate optima
  // with large vertex denominators land here).
  auto verified = verify_from_basis(em, fp.basis, parallel);
  if (!verified) return false;
  set_exact_optimum(out, em, verified->primal, std::move(verified->dual),
                    label + "basis-verification");
  return true;
}

std::vector<BasisColumn> ExactSolver::solve_exact_rung(
    const ExpandedModel& em, const SimplexOptions& options, std::string method,
    ExactSolution& out) {
  OBS_SPAN("exact_simplex");
  SimplexResult<Rational> ex = solve_simplex<Rational>(em, options);
  out.exact_iterations += ex.iterations;
  if (ex.status != SolveStatus::kOptimal) {
    out.status = ex.status;
    out.method = std::move(method);
    return {};
  }
  set_exact_optimum(out, em, ex.primal, std::move(ex.dual), std::move(method));
  return std::move(ex.basis);
}

ExactSolution ExactSolver::solve(const Model& model,
                                 SolveContext* context) const {
  ExactSolution out = solve_impl(model, context);
  record_solve(out, context);
  return out;
}

Parallel ExactSolver::solve_parallel(const SolveContext* context) const {
  const std::size_t requested =
      context && context->threads != 0 ? context->threads : options_.threads;
  const std::size_t budget = resolve_threads(requested);
  if (budget <= 1) return Parallel::serial();
  ThreadPool& pool = options_.pool ? *options_.pool : ThreadPool::shared();
  return Parallel::with(pool, budget);
}

std::optional<std::vector<std::size_t>> ExactSolver::warm_columns(
    SolveContext* context, const Model& model, const ExpandedModel& em,
    ColumnLayout& layout) {
  if (!context || context->warm.empty()) return std::nullopt;
  layout = ColumnLayout::from(em);
  auto columns = map_warm_basis(context->warm, model, em, layout);
  if (columns) context->warm_attempted = true;
  return columns;
}

namespace {

/// Every solver_* handle, registered together on first use: a snapshot
/// taken after any solve lists all of them, and recording a solve takes no
/// name lookup.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& float_pivots;
  obs::Counter& exact_pivots;
  obs::Counter& warm_attempts;
  obs::Counter& warm_solves;
  obs::Counter& exact_fallbacks;
  obs::Counter& colgen_solves;
  obs::Counter& colgen_rounds;
  obs::Counter& colgen_columns_generated;
  obs::Counter& ftran_ns;
  obs::Counter& btran_ns;
  obs::Counter& pricing_ns;
  obs::Counter& factor_ns;
  obs::Counter& certify_ns;
  obs::Counter& pricing_sweep_ns;
  obs::Histogram& certify_ms;
  obs::Histogram& factor_ms;
  obs::Histogram& pricing_ms;
};

const SolverMetrics& solver_metrics() {
  static const SolverMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    return SolverMetrics{
        reg.counter("solver_solves", "completed exact solves"),
        reg.counter("solver_float_pivots"),
        reg.counter("solver_exact_pivots"),
        reg.counter("solver_warm_attempts"),
        reg.counter("solver_warm_solves"),
        reg.counter("solver_exact_fallbacks"),
        reg.counter("solver_colgen_solves"),
        reg.counter("solver_colgen_rounds"),
        reg.counter("solver_colgen_columns_generated"),
        reg.counter("solver_ftran_ns"),
        reg.counter("solver_btran_ns"),
        reg.counter("solver_pricing_ns"),
        reg.counter("solver_factor_ns"),
        reg.counter("solver_certify_ns"),
        reg.counter("solver_pricing_sweep_ns"),
        reg.histogram("solver_certify_ms", "per-solve certification latency"),
        reg.histogram("solver_factor_ms", "per-solve factorization latency"),
        reg.histogram("solver_pricing_ms", "per-solve pricing latency")};
  }();
  return m;
}

}  // namespace

void ExactSolver::record_solve(const ExactSolution& out,
                               const SolveContext* context) {
  const SolverMetrics& m = solver_metrics();
  // One Batch: a concurrent snapshot sees the whole solve or none of it.
  obs::Registry::Batch batch(obs::Registry::global());
  m.solves.add(1);
  m.float_pivots.add(out.float_iterations);
  m.exact_pivots.add(out.exact_iterations);
  if (context && context->warm_attempted) m.warm_attempts.add(1);
  if (out.warm_started) m.warm_solves.add(1);
  // The exact rung's label: a fallback counts even when the rational
  // tableau proved its verdict without a pivot.
  if (out.method.find("exact-simplex") != std::string::npos) {
    m.exact_fallbacks.add(1);
  }
  if (out.colgen.rounds > 0 || out.colgen.columns_total > 0) {
    m.colgen_solves.add(1);
    m.colgen_rounds.add(out.colgen.rounds);
    m.colgen_columns_generated.add(out.colgen.columns_generated);
  }
  const SolvePhaseTimes& t = out.phase_times;
  m.ftran_ns.add(t.ftran_ns);
  m.btran_ns.add(t.btran_ns);
  m.pricing_ns.add(t.pricing_ns);
  m.factor_ns.add(t.factor_ns);
  m.certify_ns.add(t.certify_ns);
  m.pricing_sweep_ns.add(t.pricing_sweep_ns);
  m.certify_ms.record(static_cast<double>(t.certify_ns) / 1e6);
  m.factor_ms.record(static_cast<double>(t.factor_ns) / 1e6);
  m.pricing_ms.record(static_cast<double>(t.pricing_ns) / 1e6);
}

ExactSolution ExactSolver::solve_impl(const Model& model,
                                      SolveContext* context) const {
  OBS_SPAN("solve");
  ExactSolution out;
  ExpandedModel em = ExpandedModel::from(model);

  if (context) {
    context->warm_attempted = false;
    context->warm_used = false;
    context->cost_shifts = 0;
  }

  // Remember the basis that produced the final answer so the NEXT solve in
  // this context starts warm.
  auto remember = [&](const std::vector<BasisColumn>& basis) {
    if (context && !basis.empty()) {
      context->warm = capture_warm_start(model, basis);
    }
  };

  // The certificate ladder on a float optimum of `em`, billed to
  // certify_ns: a verified pair is the answer as it stands.
  const Parallel par = solve_parallel(context);
  auto certify = [&](const SimplexResult<double>& fp) {
    OBS_SPAN("certify");
    const auto t0 = PhaseClock::now();
    const bool ok = certify_float_result(em, fp, "double+", out, par);
    out.phase_times.certify_ns += ns_since(t0);
    return ok;
  };

  // Warm attempt: replay the context basis through the dual simplex. ANY
  // inconclusive or non-optimal warm outcome — including a tolerance-level
  // infeasible verdict, which a drifted stale basis can fake — falls back
  // to the cold float pass, so a warm start costs at most one extra
  // (cheap) float solve, never a wrong answer and never an unnecessary
  // trip through the exact simplex.
  ColumnLayout layout;
  if (auto columns = warm_columns(context, model, em, layout)) {
    OBS_SPAN("warm");
    DualSolveInfo info;
    SimplexResult<double> warm =
        solve_from_basis(em, std::move(layout), *columns,
                         warm_options(em.rows.size()), &info);
    out.float_iterations += warm.iterations;
    out.phase_times += warm.phase_times;
    context->cost_shifts = info.cost_shifts;
    if (warm.status == SolveStatus::kOptimal && certify(warm)) {
      remember(warm.basis);
      context->warm_used = true;
      out.warm_started = true;
      return out;
    }
    // Anything else — basis singular, stale past the pivot budget,
    // numerically hopeless, or a float-level infeasible/unbounded verdict:
    // fall through to the cold solve.
  }

  // Cold solve on the full model.
  SimplexResult<double> fp = [&] {
    OBS_SPAN("float");
    return solve_simplex<double>(em, options_.simplex);
  }();
  out.float_iterations += fp.iterations;
  out.phase_times += fp.phase_times;
  if (fp.status == SolveStatus::kOptimal && certify(fp)) {
    remember(fp.basis);
    return out;
  }

  // Exact fallback. Also the path that *proves* infeasibility/unboundedness
  // reported by the double pass.
  remember(solve_exact_rung(em, options_.simplex,
                            fp.status == SolveStatus::kOptimal
                                ? "double+exact-simplex"
                                : "exact-simplex",
                            out));
  return out;
}

ExactSolution solve_exact_simplex(const Model& model,
                                  const SimplexOptions& options) {
  ExactSolution out;
  (void)ExactSolver::solve_exact_rung(ExpandedModel::from(model), options,
                                      "exact-simplex", out);
  return out;
}

}  // namespace ssco::lp
