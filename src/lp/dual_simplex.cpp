#include "lp/dual_simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace ssco::lp {

// ---- RevisedSimplex warm-start / dual extensions -------------------------

bool RevisedSimplex::load_basis(const std::vector<std::size_t>& columns) {
  if (columns.size() != m_) {
    ok_ = false;
    return false;
  }
  std::fill(pos_of_col_.begin(), pos_of_col_.end(), kNone);
  std::fill(at_upper_.begin(), at_upper_.end(), false);
  for (std::size_t k = 0; k < m_; ++k) {
    const std::size_t c = columns[k];
    if (c >= num_cols_ || pos_of_col_[c] != kNone) {
      ok_ = false;
      return false;
    }
    basis_[k] = c;
    pos_of_col_[c] = k;
  }
  ok_ = refactor();
  return ok_;
}

SolveStatus RevisedSimplex::replay(const std::vector<std::size_t>& columns,
                                   const SimplexOptions& opt,
                                   std::size_t& iterations,
                                   std::size_t& cost_shifts) {
  if (!load_basis(columns)) return SolveStatus::kIterationLimit;
  std::vector<double> shifted = phase2_costs();
  cost_shifts = make_dual_feasible(shifted);
  return dual_optimize(shifted, opt, iterations);
}

void RevisedSimplex::set_column_upper_bound(std::size_t col, double ub) {
  assert(col < num_cols_);
  assert(pos_of_col_[col] == kNone && !at_upper_[col]);
  // Callers speak original units; the engine stores the scaled bound
  // (x~ = x / c_j, so ub~ = ub / c_j).
  ub_[col] = ub / col_scale_[col];
}

std::size_t RevisedSimplex::make_dual_feasible(std::vector<double>& cost) {
  compute_multipliers(cost);
  std::size_t shifted = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (pos_of_col_[j] != kNone || barred_[j] || ub_[j] <= 0.0) continue;
    const double d = A_.dot_column(j, y_) - cost[j];
    const bool bad = at_upper_[j] ? d > kEps : d < -kEps;
    if (bad) {
      cost[j] += d;  // reduced cost becomes exactly zero
      ++shifted;
    }
  }
  return shifted;
}

double RevisedSimplex::primal_infeasibility() const {
  double worst = 0.0;
  for (std::size_t k = 0; k < m_; ++k) {
    worst = std::max(worst, -xb_[k]);
    worst = std::max(worst, xb_[k] - ub_[basis_[k]]);
  }
  return worst;
}

bool RevisedSimplex::has_boxed_at_upper() const {
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j] && pos_of_col_[j] == kNone && ub_[j] > 0.0 &&
        std::isfinite(ub_[j])) {
      return true;
    }
  }
  return false;
}

void RevisedSimplex::flip_bound(std::size_t j) {
  const Support& nonzeros = ftran_column(j);
  // Moving the nonbasic value from bound to bound shifts the effective RHS:
  // lower->upper subtracts ub * B^-1 A_j from the basic values.
  const double step = at_upper_[j] ? ub_[j] : -ub_[j];
  for_each_bit(nonzeros, [&](std::size_t k) {
    if (work_[k] == 0.0) return;
    xb_[k] += step * work_[k];
    if (std::fabs(xb_[k]) < kZeroTol) xb_[k] = 0.0;
  });
  clear_work(nonzeros);
  at_upper_[j] = !at_upper_[j];
}

SolveStatus RevisedSimplex::dual_optimize(const std::vector<double>& cost,
                                          const SimplexOptions& opt,
                                          std::size_t& iterations) {
  struct Cand {
    std::size_t col = 0;
    double ratio = 0.0;
    double alpha = 0.0;
  };
  std::vector<Cand> cands;
  std::vector<std::size_t> flips;
  std::size_t degenerate_run = 0;

  while (true) {
    if (!ok_) return SolveStatus::kIterationLimit;
    if (iterations >= opt.max_iterations) return SolveStatus::kIterationLimit;
    const bool bland = degenerate_run >= opt.bland_after;

    // 1. Leaving row: the basic value violating [0, ub] the most — unless
    // degeneracy forced Bland mode (then: the violated row with the smallest
    // column index).
    std::size_t r = kNone;
    double worst = 0.0;
    for (std::size_t k = 0; k < m_; ++k) {
      const double viol = std::max(-xb_[k], xb_[k] - ub_[basis_[k]]);
      if (viol <= kFeasTol) continue;
      if (bland) {
        if (r == kNone || basis_[k] < basis_[r]) r = k;
      } else if (r == kNone || viol > worst) {
        worst = viol;
        r = k;
      }
    }
    if (r == kNone) return SolveStatus::kOptimal;
    const bool below = xb_[r] < 0.0;
    const double infeas = below ? -xb_[r] : xb_[r] - ub_[basis_[r]];

    // 2. Pricing row rho = r-th row of B^-1, and multipliers for d_j.
    rho_.assign(m_, 0.0);
    rho_[r] = 1.0;
    timed_btran(rho_);
    compute_multipliers(cost);

    // 3. Dual ratio test candidates: nonbasic columns whose movement can
    // push xb_[r] back toward its violated bound while keeping every
    // reduced cost on its feasible side. Normalizing by `dir` folds the
    // below/above cases into one sign test.
    const double dir = below ? -1.0 : 1.0;
    cands.clear();
    compute_pivot_row(rho_);  // columns it misses have alpha == 0: no cand
    for (std::size_t j : touched_cols_) {
      if (pos_of_col_[j] != kNone || barred_[j] || ub_[j] <= 0.0) continue;
      const double alpha = alpha_[j];
      const double abar = dir * alpha;
      if (at_upper_[j] ? abar >= -kEps : abar <= kEps) continue;
      double d = A_.dot_column(j, y_) - cost[j];
      // Clamp dual drift to the feasible side: tiny violations become
      // zero-ratio pivots that restore feasibility instead of poisoning
      // the minimum.
      d = at_upper_[j] ? std::min(d, 0.0) : std::max(d, 0.0);
      cands.push_back({j, d / abar, alpha});
    }
    if (cands.empty()) {
      // No dual step can mend row r: dual unbounded, primal infeasible.
      // Confirm against a fresh factorization first — through a long eta
      // file the candidate alphas are drifted, and a false verdict here
      // costs the caller its cheap fallbacks.
      if (lu_->updates() > 0) {
        ok_ = refactor();
        continue;
      }
      return SolveStatus::kInfeasible;
    }

    std::size_t entering = kNone;
    double entering_ratio = 0.0;
    flips.clear();
    if (bland) {
      // Anti-cycling: minimum ratio, smallest column index on ties; no
      // bound flips (flips are a long-step optimization, not needed for
      // finiteness).
      double min_ratio = cands.front().ratio;
      for (const Cand& c : cands) min_ratio = std::min(min_ratio, c.ratio);
      for (const Cand& c : cands) {
        if (c.ratio > min_ratio + kTieTol) continue;
        if (entering == kNone || c.col < entering) entering = c.col;
      }
      entering_ratio = min_ratio;
    } else {
      // Bound-flipping ratio test (Maros): walk the breakpoints in ratio
      // order; a candidate whose own bound range cannot absorb the
      // remaining infeasibility is cheaper to FLIP to its opposite bound
      // (dual feasibility is preserved — its reduced cost changes sign
      // exactly when its bound status does) than to bring into the basis.
      std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        if (a.ratio != b.ratio) return a.ratio < b.ratio;
        return std::fabs(a.alpha) > std::fabs(b.alpha);
      });
      double remaining = infeas;
      for (const Cand& c : cands) {
        const double capacity =
            std::isfinite(ub_[c.col])
                ? ub_[c.col] * std::fabs(c.alpha)
                : std::numeric_limits<double>::infinity();
        if (capacity < remaining - kFeasTol) {
          flips.push_back(c.col);
          remaining -= capacity;
        } else {
          entering = c.col;
          entering_ratio = c.ratio;
          break;
        }
      }
      if (entering == kNone) {
        // Even flipping every breakpoint leaves row r violated.
        if (lu_->updates() > 0) {
          ok_ = refactor();
          continue;
        }
        return SolveStatus::kInfeasible;
      }
    }

    for (std::size_t j : flips) flip_bound(j);

    // 4. Exchange. The FTRAN-transformed entering column gives the step.
    const Support& nonzeros = ftran_column(entering);
    if (std::fabs(work_[r]) <= kEps) {
      // Pivot weight vanished under the accumulated eta file: refresh and
      // retry; if even a fresh factorization disagrees with the pricing
      // row, the basis is numerically hopeless — bail to the cold path.
      clear_work(nonzeros);
      if (lu_->updates() == 0) return SolveStatus::kIterationLimit;
      ok_ = refactor();
      continue;
    }

    const double target = below ? 0.0 : ub_[basis_[r]];
    const double t = (xb_[r] - target) / work_[r];
    const double entering_origin = at_upper_[entering] ? ub_[entering] : 0.0;
    for_each_bit(nonzeros, [&](std::size_t k) {
      if (k == r || work_[k] == 0.0) return;
      xb_[k] -= t * work_[k];
      if (std::fabs(xb_[k]) < kZeroTol) xb_[k] = 0.0;
    });
    xb_[r] = entering_origin + t;

    const std::size_t leaving_col = basis_[r];
    at_upper_[leaving_col] =
        !below && std::isfinite(ub_[leaving_col]) && ub_[leaving_col] > 0.0;
    pos_of_col_[leaving_col] = kNone;
    basis_[r] = entering;
    pos_of_col_[entering] = r;
    at_upper_[entering] = false;
    const bool absorbed = lu_->update(r, work_, nonzeros);
    clear_work(nonzeros);  // before refactor() reuses the workspace
    if (!absorbed || should_refactor()) ok_ = refactor();

    if (entering_ratio <= kDegenTol) {
      ++degenerate_run;
    } else {
      degenerate_run = 0;
    }
    ++iterations;
  }
}

// ---- Warm re-solve driver ------------------------------------------------

SimplexResult<double> solve_from_basis(
    const ExpandedModel& em, const std::vector<std::size_t>& basis_columns,
    const SimplexOptions& options, DualSolveInfo* info) {
  return solve_from_basis(em, ColumnLayout::from(em), basis_columns, options,
                          info);
}

SimplexResult<double> solve_from_basis(
    const ExpandedModel& em, ColumnLayout layout,
    const std::vector<std::size_t>& basis_columns,
    const SimplexOptions& options, DualSolveInfo* info) {
  SimplexResult<double> result;
  // Defer the identity-basis factorization: the replay loads its own.
  RevisedSimplex simplex(em, std::move(layout), /*defer_initial_factor=*/true);
  std::size_t shifts = 0;
  std::size_t dual_iters = 0;
  result.status = simplex.replay(basis_columns, options, dual_iters, shifts);
  result.iterations = dual_iters;
  result.phase_times = simplex.phase_times();
  if (info) {
    info->cost_shifts = shifts;
    info->dual_pivots = dual_iters;
  }
  if (result.status != SolveStatus::kOptimal) return result;

  // Finish with true-cost primal pivots. Even a shift-free dual phase runs
  // this sweep: the dual ratio test maintains dual feasibility only up to
  // tolerance, and the final pricing pass repairs any drift cheaply (zero
  // pivots when the basis is genuinely optimal) — without it, drifted warm
  // optima fail the exact certificate and trigger the costly fallbacks.
  const std::vector<double> cost = simplex.phase2_costs();
  if (simplex.has_boxed_at_upper()) {
    // Boxed columns parked at their upper bound are legitimate dual-
    // simplex optima, but the bound-blind primal loop cannot touch them.
    // Production models carry no finite boxes; a shifted hand-crafted
    // instance goes back to the cold path rather than miscompute.
    if (shifts != 0) {
      result.status = SolveStatus::kIterationLimit;
      return result;
    }
  } else {
    // One cumulative pivot budget for the whole warm attempt: the primal
    // cleanup only gets what the dual phase left over.
    SimplexOptions primal_options = options;
    primal_options.max_iterations =
        options.max_iterations > dual_iters
            ? options.max_iterations - dual_iters
            : 0;
    std::size_t primal_iters = 0;
    result.status = simplex.optimize(cost, primal_options, primal_iters);
    result.iterations += primal_iters;
    result.phase_times = simplex.phase_times();
    if (info) info->primal_pivots = primal_iters;
    if (result.status != SolveStatus::kOptimal) return result;
  }
  simplex.extract(cost, result);
  return result;
}

}  // namespace ssco::lp
