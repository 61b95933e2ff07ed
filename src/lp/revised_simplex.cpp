#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "lp/scaling.h"
#include "obs/trace.h"

namespace ssco::lp {

RevisedSimplex::RevisedSimplex(const ExpandedModel& em, ColumnLayout layout,
                               bool defer_initial_factor)
    : em_(em), layout_(std::move(layout)) {
  const std::size_t m = em.rows.size();
  const std::size_t n = em.num_vars;
  m_ = m;
  num_cols_ = layout_.num_cols;
  build_num_vars_ = n;

  row_scale_.assign(m, 1.0);
  col_scale_.assign(num_cols_, 1.0);
  Equilibration eq = Equilibration::geometric_mean(em);
  if (!eq.identity) {
    row_scale_ = std::move(eq.row_scale);
    for (std::size_t j = 0; j < n; ++j) col_scale_[j] = eq.col_scale[j];
    // Slack and artificial columns counter-scale so they stay exactly ±1:
    // the identity start basis and every eta built on it keep the
    // conditioning the equilibration just bought.
    for (std::size_t i = 0; i < m; ++i) {
      if (layout_.slack_col[i] != kNone) {
        col_scale_[layout_.slack_col[i]] = 1.0 / row_scale_[i];
      }
      if (layout_.art_col[i] != kNone) {
        col_scale_[layout_.art_col[i]] = 1.0 / row_scale_[i];
      }
    }
  }

  // Structural columns, gathered from the row-major expanded model, scaled.
  std::vector<std::vector<CscMatrix::Entry>> buckets(n);
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& [idx, coeff] : em.rows[i].coeffs) {
      const double v =
          coeff.to_double() * row_scale_[i] * col_scale_[idx];
      buckets[idx].push_back({i, layout_.flipped[i] ? -v : v});
    }
  }
  A_ = CscMatrix(m);
  std::size_t nnz = 0;
  for (const auto& b : buckets) nnz += b.size();
  A_.reserve(num_cols_, nnz + 2 * m);
  for (std::size_t j = 0; j < n; ++j) A_.add_column(buckets[j]);
  for (std::size_t i = 0; i < m; ++i) {
    if (layout_.slack_col[i] == kNone) continue;
    A_.push_entry(i, layout_.sense[i] == Sense::kLessEqual ? 1.0 : -1.0);
    A_.end_column();
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (layout_.art_col[i] == kNone) continue;
    A_.push_entry(i, 1.0);
    A_.end_column();
  }

  rhs_.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double v = em.rows[i].rhs.to_double() * row_scale_[i];
    rhs_[i] = layout_.flipped[i] ? -v : v;
  }

  // Columns are unbounded above except the artificials, which only ever
  // carry a nonzero value while primal-infeasible; fixing them at zero lets
  // the dual loop treat a warm-start completion artificial like any other
  // out-of-bounds basic variable.
  ub_.assign(num_cols_, std::numeric_limits<double>::infinity());
  for (std::size_t c = layout_.art_start_col; c < num_cols_; ++c) ub_[c] = 0.0;
  at_upper_.assign(num_cols_, false);

  // Initial basis: slack for <=, artificial otherwise — the identity.
  barred_.assign(num_cols_, false);
  pos_of_col_.assign(num_cols_, kNone);
  basis_.assign(m, kNone);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t c = layout_.sense[i] == Sense::kLessEqual
                              ? layout_.slack_col[i]
                              : layout_.art_col[i];
    basis_[i] = c;
    pos_of_col_[c] = i;
    if (is_artificial(c)) barred_[c] = true;
  }
  if (!defer_initial_factor) ok_ = refactor();
}

std::vector<double> RevisedSimplex::phase1_costs() const {
  std::vector<double> cost(num_cols_, 0.0);
  for (std::size_t c = layout_.art_start_col; c < layout_.art_end_col; ++c) {
    cost[c] = -1.0;
  }
  return cost;
}

std::vector<double> RevisedSimplex::phase2_costs() const {
  std::vector<double> cost(num_cols_, 0.0);
  for (std::size_t j = 0; j < em_.num_vars; ++j) {
    const std::size_t col = column_of_var(j);
    cost[col] = em_.objective[j].to_double() * col_scale_[col];
  }
  return cost;
}

const Support& RevisedSimplex::ftran_column(std::size_t j) {
  work_.resize(m_);
  A_.scatter_column(j, work_, work_rows_);
  const auto t0 = PhaseClock::now();
  const Support& nonzeros = lu_->ftran(work_, work_rows_, lu_ws_);
  times_.ftran_ns += ns_since(t0);
  return nonzeros;
}

void RevisedSimplex::clear_work(const Support& nonzeros) {
  for_each_bit(nonzeros, [&](std::size_t k) { work_[k] = 0.0; });
}

void RevisedSimplex::timed_btran(std::vector<double>& x) {
  const auto t0 = PhaseClock::now();
  lu_->btran(x, lu_ws_);
  times_.btran_ns += ns_since(t0);
}

SolveStatus RevisedSimplex::optimize(const std::vector<double>& cost,
                                     const SimplexOptions& opt,
                                     std::size_t& iterations) {
  candidates_.clear();  // stale under a different cost vector
  std::size_t degenerate_run = 0;
  while (true) {
    if (!ok_) return SolveStatus::kIterationLimit;
    if (iterations >= opt.max_iterations) return SolveStatus::kIterationLimit;
    const bool bland = degenerate_run >= opt.bland_after;

    compute_multipliers(cost);
    const std::size_t entering = bland ? pick_bland(cost) : pick_dantzig(cost);
    if (entering == kNone) return SolveStatus::kOptimal;

    // Pivot column through the basis inverse.
    const Support& nonzeros = ftran_column(entering);

    // Ratio test over the column's nonzeros in ascending position order;
    // ties go to the largest pivot (stability), or to the smallest basic
    // column index under Bland's rule (anti-cycling).
    // A basic artificial (upper bound 0) whose value the step would RAISE
    // blocks at ratio zero: that is how artificials parked at zero by a
    // skipped phase 1 retire lazily instead of drifting positive.
    std::size_t leaving = kNone;
    double best_ratio = 0.0;
    for_each_bit(nonzeros, [&](std::size_t k) {
      double ratio;
      if (work_[k] > kEps) {
        ratio = std::max(xb_[k], 0.0) / work_[k];
      } else if (work_[k] < -kEps && ub_[basis_[k]] == 0.0 &&
                 xb_[k] <= kFeasTol) {
        // Only a variable AT its zero bound blocks this way; a genuinely
        // positive artificial mid-phase-1 is priced by the objective, not
        // the ratio test.
        ratio = 0.0;
      } else {
        return;
      }
      if (leaving == kNone || ratio < best_ratio - kTieTol) {
        leaving = k;
        best_ratio = ratio;
      } else if (ratio <= best_ratio + kTieTol) {
        const bool take = bland
                              ? basis_[k] < basis_[leaving]
                              : std::fabs(work_[k]) > std::fabs(work_[leaving]);
        if (take) {
          leaving = k;
          best_ratio = std::min(best_ratio, ratio);
        }
      }
    });
    if (leaving == kNone) {
      clear_work(nonzeros);
      return SolveStatus::kUnbounded;
    }

    if (std::max(xb_[leaving], 0.0) <= kDegenTol) {
      ++degenerate_run;
    } else {
      degenerate_run = 0;
    }
    pivot(leaving, entering, nonzeros);
    ++iterations;
  }
}

void RevisedSimplex::refresh() {
  if (lu_->updates() > 0) ok_ = refactor();
}

SolveStatus RevisedSimplex::cold_start(const SimplexOptions& opt,
                                       std::size_t& iterations) {
  if (!ok_) return SolveStatus::kIterationLimit;
  // Zero-RHS == rows (flow conservation, throughput coupling — the bulk of
  // every steady-state model here) start with their artificial basic at
  // exactly zero, so the identity basis is already primal feasible and the
  // whole phase-1 pivot storm plus the eager artificial expulsion would be
  // pure degenerate churn. Skip both: the artificials stay basic at zero
  // behind their zero upper bound, and the bounded ratio test retires one
  // the moment a phase-2 step would lift it.
  if (!has_artificials() || infeasibility() <= kFeasTol) {
    return SolveStatus::kOptimal;
  }
  OBS_SPAN("phase1");
  if (optimize(phase1_costs(), opt, iterations) ==
      SolveStatus::kIterationLimit) {
    return SolveStatus::kIterationLimit;
  }
  if (infeasibility() > kFeasTol) return SolveStatus::kInfeasible;
  expel_artificials();
  return SolveStatus::kOptimal;
}

void RevisedSimplex::extract(const std::vector<double>& cost,
                             SimplexResult<double>& result) {
  refresh();
  if (ok_) {
    result.status = SolveStatus::kOptimal;
    result.primal = extract_primal();
    result.dual = extract_duals(cost);
    result.objective = objective_value(cost);
    result.basis = extract_basis();
  } else {
    result.status = SolveStatus::kIterationLimit;
  }
  result.phase_times = times_;
}

double RevisedSimplex::infeasibility() const {
  double total = 0.0;
  for (std::size_t k = 0; k < m_; ++k) {
    if (is_artificial(basis_[k])) total += std::max(xb_[k], 0.0);
  }
  return total;
}

void RevisedSimplex::expel_artificials() {
  for (std::size_t r = 0; r < m_ && ok_; ++r) {
    if (!is_artificial(basis_[r])) continue;
    // rho = r-th row of the basis inverse; rho' A_j is the pivot weight.
    rho_.assign(m_, 0.0);
    rho_[r] = 1.0;
    timed_btran(rho_);
    std::size_t entering = kNone;
    for (std::size_t j = 0; j < layout_.art_start_col; ++j) {
      if (pos_of_col_[j] != kNone) continue;
      if (std::fabs(A_.dot_column(j, rho_)) > kFeasTol) {
        entering = j;
        break;
      }
    }
    if (entering == kNone) continue;  // redundant row
    const Support& nonzeros = ftran_column(entering);
    if (std::fabs(work_[r]) <= kFeasTol) {
      clear_work(nonzeros);
      continue;
    }
    pivot(r, entering, nonzeros);
  }
}

std::vector<double> RevisedSimplex::extract_primal() const {
  std::vector<double> x(em_.num_vars, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    const BasisColumn& id = layout_.column_identity[basis_[k]];
    if (id.kind == BasisColumn::Kind::kStructural) {
      x[id.index] =
          std::fabs(xb_[k]) < kZeroTol ? 0.0 : xb_[k] * col_scale_[basis_[k]];
    }
  }
  for (std::size_t j = 0; j < em_.num_vars; ++j) {
    const std::size_t col = column_of_var(j);
    if (at_upper_[col] && pos_of_col_[col] == kNone) {
      x[j] = ub_[col] * col_scale_[col];
    }
  }
  return x;
}

double RevisedSimplex::objective_value(const std::vector<double>& cost) const {
  // Scaled costs against scaled values: the scale factors cancel, so this
  // is the true (unscaled) objective.
  double z = 0.0;
  for (std::size_t k = 0; k < m_; ++k) {
    if (cost[basis_[k]] != 0.0) z += cost[basis_[k]] * xb_[k];
  }
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j] && pos_of_col_[j] == kNone && cost[j] != 0.0) {
      z += cost[j] * ub_[j];
    }
  }
  return z;
}

std::vector<double> RevisedSimplex::extract_duals(
    const std::vector<double>& cost) {
  compute_multipliers(cost);
  std::vector<double> duals(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double y = y_[i] * row_scale_[i];
    duals[i] = layout_.flipped[i] ? -y : y;
  }
  return duals;
}

std::vector<BasisColumn> RevisedSimplex::extract_basis() const {
  std::vector<BasisColumn> basis(m_);
  for (std::size_t k = 0; k < m_; ++k) {
    basis[k] = layout_.column_identity[basis_[k]];
  }
  return basis;
}

std::size_t RevisedSimplex::append_column(
    std::size_t var,
    const std::vector<std::pair<std::size_t, Rational>>& entries) {
  if (var != build_num_vars_ + appended_cols_.size()) {
    // Variables must be appended densely, in model order, or column_of_var
    // lookups would lie.
    ok_ = false;
    return kNone;
  }
  const double cs = column_equilibration_factor(entries, row_scale_);
  std::vector<CscMatrix::Entry> scaled;
  scaled.reserve(entries.size());
  for (const auto& [i, coeff] : entries) {
    const double v = coeff.to_double() * row_scale_[i] * cs;
    scaled.push_back({i, layout_.flipped[i] ? -v : v});
  }
  const std::size_t col = A_.add_column(scaled);
  const std::size_t layout_col = layout_.append_structural(var);
  if (col != layout_col) {
    // The CSC matrix and the layout must extend in lockstep; a divergence
    // here would silently corrupt every index-based lookup.
    ok_ = false;
    return kNone;
  }
  num_cols_ = layout_.num_cols;
  barred_.push_back(false);
  pos_of_col_.push_back(kNone);
  ub_.push_back(std::numeric_limits<double>::infinity());
  at_upper_.push_back(false);
  col_scale_.push_back(cs);
  appended_cols_.push_back(col);
  // The candidate list and the CSR mirror no longer cover the new column;
  // both rebuild lazily on next use.
  candidates_.clear();
  row_start_.clear();
  row_cols_.clear();
  row_vals_.clear();
  alpha_.clear();
  alpha_seen_.clear();
  touched_cols_.clear();
  return col;
}

bool RevisedSimplex::append_row(Sense sense, const Rational& rhs) {
  // Zero-feasibility gate (see header): the new row must hold at zero
  // activity so the identity column can enter the basis without a step.
  Sense eff = sense;
  bool flip = false;
  switch (sense) {
    case Sense::kEqual:
      if (!rhs.is_zero()) return false;
      break;
    case Sense::kLessEqual:
      if (rhs.is_negative()) return false;
      break;
    case Sense::kGreaterEqual:
      if (rhs.signum() > 0) return false;
      eff = Sense::kLessEqual;
      flip = true;
      break;
  }
  const std::size_t row = m_;
  A_.add_rows(1);
  m_ += 1;
  // Appended rows are never rescaled: equilibration factors were fixed at
  // construction, and a unit factor keeps the identity column exactly ±1.
  row_scale_.push_back(1.0);
  const double b = rhs.to_double();
  const double scaled = flip ? -b : b;
  rhs_.push_back(scaled);

  const std::size_t basic = layout_.append_row(row, eff, flip);
  // Matching identity column(s) in A_, in the exact order the layout
  // registered them (slack/surplus first, then artificial).
  auto push_identity = [&](double value, bool artificial) {
    A_.push_entry(row, value);
    A_.end_column();
    barred_.push_back(artificial);
    pos_of_col_.push_back(kNone);
    ub_.push_back(artificial ? 0.0 : std::numeric_limits<double>::infinity());
    at_upper_.push_back(false);
    col_scale_.push_back(1.0);
  };
  if (eff != Sense::kEqual) {
    push_identity(eff == Sense::kLessEqual ? 1.0 : -1.0, false);
  }
  if (eff != Sense::kLessEqual) {
    push_identity(1.0, true);
  }
  num_cols_ = layout_.num_cols;

  // The identity column goes basic at the (feasible) zero-activity value.
  basis_.push_back(basic);
  pos_of_col_[basic] = row;
  xb_.push_back(eff == Sense::kEqual ? 0.0 : scaled);
  lu_->append_identity_row();

  // The candidate list and the CSR mirror no longer cover the new columns
  // and row; both rebuild lazily on next use.
  candidates_.clear();
  row_start_.clear();
  row_cols_.clear();
  row_vals_.clear();
  alpha_.clear();
  alpha_seen_.clear();
  touched_cols_.clear();
  return true;
}

void RevisedSimplex::compute_multipliers(const std::vector<double>& cost) {
  y_.assign(m_, 0.0);
  for (std::size_t k = 0; k < m_; ++k) y_[k] = cost[basis_[k]];
  timed_btran(y_);
}

std::size_t RevisedSimplex::pick_dantzig(const std::vector<double>& cost) {
  const auto t0 = PhaseClock::now();
  // Multiple pricing (Orchard-Hays): a MAJOR full sweep collects the most
  // negative reduced-cost columns into a candidate list; MINOR iterations
  // then price only those few dozen columns against the fresh multipliers
  // — a few hundred flops instead of a matrix-wide scan — until the list
  // runs dry and the next major sweep refills it. Optimality is still
  // decided by a full silent sweep.
  constexpr std::size_t kCandidates = 64;

  // Minor pass: reprice the surviving candidates exactly.
  double best = -kEps;
  std::size_t best_col = kNone;
  std::size_t kept = 0;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const std::size_t j = candidates_[c];
    if (pos_of_col_[j] != kNone || barred_[j]) continue;
    const double d = A_.dot_column(j, y_) - cost[j];
    if (d >= -kEps) continue;  // turned non-improving: drop from the list
    candidates_[kept++] = j;
    if (d < best) {
      best = d;
      best_col = j;
    }
  }
  candidates_.resize(kept);
  if (best_col != kNone) {
    times_.pricing_ns += ns_since(t0);
    return best_col;
  }

  // Major pass: full sweep, keeping the kCandidates most negative.
  candidates_.clear();
  candidate_d_.clear();
  double worst_kept = 0.0;  // largest (least negative) d in the list
  std::size_t worst_at = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (pos_of_col_[j] != kNone || barred_[j]) continue;
    const double d = A_.dot_column(j, y_) - cost[j];
    if (d >= -kEps) continue;
    if (candidates_.size() < kCandidates) {
      candidates_.push_back(j);
      candidate_d_.push_back(d);
    } else if (d < worst_kept) {
      candidates_[worst_at] = j;
      candidate_d_[worst_at] = d;
    } else {
      continue;
    }
    worst_kept = candidate_d_[0];
    worst_at = 0;
    for (std::size_t c = 1; c < candidate_d_.size(); ++c) {
      if (candidate_d_[c] > worst_kept) {
        worst_kept = candidate_d_[c];
        worst_at = c;
      }
    }
  }
  for (std::size_t c = 0; c < candidate_d_.size(); ++c) {
    if (best_col == kNone || candidate_d_[c] < best) {
      best = candidate_d_[c];
      best_col = candidates_[c];
    }
  }
  times_.pricing_ns += ns_since(t0);
  return best_col;
}

std::size_t RevisedSimplex::pick_bland(const std::vector<double>& cost) {
  const auto t0 = PhaseClock::now();
  std::size_t found = kNone;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (pos_of_col_[j] != kNone || barred_[j]) continue;
    if (A_.dot_column(j, y_) - cost[j] < -kEps) {
      found = j;
      break;
    }
  }
  times_.pricing_ns += ns_since(t0);
  return found;
}

void RevisedSimplex::ensure_row_mirror() {
  // Built on first use: only the dual loop walks the matrix row-wise, so a
  // cold primal solve never pays the O(nnz) copy.
  if (!row_start_.empty()) return;
  row_start_.assign(m_ + 1, 0);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    for (const CscMatrix::Entry* e = A_.col_begin(j); e != A_.col_end(j);
         ++e) {
      ++row_start_[e->row + 1];
    }
  }
  for (std::size_t i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
  row_cols_.resize(A_.num_nonzeros());
  row_vals_.resize(A_.num_nonzeros());
  std::vector<std::size_t> fill(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    for (const CscMatrix::Entry* e = A_.col_begin(j); e != A_.col_end(j);
         ++e) {
      const std::size_t at = fill[e->row]++;
      row_cols_[at] = static_cast<std::int32_t>(j);
      row_vals_[at] = e->value;
    }
  }
  alpha_.assign(num_cols_, 0.0);
  alpha_seen_.assign(num_cols_, 0);
}

void RevisedSimplex::compute_pivot_row(const std::vector<double>& rho) {
  ensure_row_mirror();
  for (std::size_t j : touched_cols_) {
    alpha_[j] = 0.0;
    alpha_seen_[j] = 0;
  }
  touched_cols_.clear();
  const std::int32_t* const cols = row_cols_.data();
  const double* const vals = row_vals_.data();
  for (std::size_t i = 0; i < m_; ++i) {
    const double ri = rho[i];
    if (ri == 0.0) continue;
    const std::size_t end = row_start_[i + 1];
    for (std::size_t k = row_start_[i]; k < end; ++k) {
      const auto col = static_cast<std::size_t>(cols[k]);
      if (!alpha_seen_[col]) {
        alpha_seen_[col] = 1;
        touched_cols_.push_back(col);
      }
      alpha_[col] += ri * vals[k];
    }
  }
}

void RevisedSimplex::pivot(std::size_t r, std::size_t e,
                           const Support& nonzeros) {
  // Applies the basis exchange: position `r` leaves, column `e` enters.
  // `work_` must hold the FTRAN-transformed entering column, nonzero only
  // within `nonzeros`; it is all zero again on return.
  double theta = std::max(xb_[r], 0.0) / work_[r];
  if (std::fabs(xb_[r]) < kEps && is_artificial(basis_[r])) {
    theta = 0.0;  // degenerate expel: the artificial's true value is zero
  }
  if (theta < 0.0) {
    // A zero-upper-bound column leaving on a NEGATIVE pivot weight (the
    // bounded ratio-test case) steps by (xb - 0)/work, which rounds to a
    // tiny negative value when xb sits just above its bound; the true
    // step is zero.
    theta = 0.0;
  }
  for_each_bit(nonzeros, [&](std::size_t k) {
    if (k == r || work_[k] == 0.0) return;
    xb_[k] -= theta * work_[k];
    if (std::fabs(xb_[k]) < kZeroTol) xb_[k] = 0.0;
  });
  xb_[r] = theta;
  pos_of_col_[basis_[r]] = kNone;
  basis_[r] = e;
  pos_of_col_[e] = r;
  const bool absorbed = lu_->update(r, work_, nonzeros);
  clear_work(nonzeros);  // before refactor() reuses the workspace
  if (!absorbed || should_refactor()) ok_ = refactor();
}

bool RevisedSimplex::should_refactor() const {
  const std::size_t updates = lu_->updates();
  if (updates < kMinRefactorInterval) return false;
  if (updates >= kMaxRefactorInterval) return true;
  // Adaptive trigger: refactorize once applying the eta file costs about as
  // much as applying the factors themselves — then a fresh factorization
  // pays for itself within a few iterations. The m term keeps a sparse
  // identity-like factorization from triggering after a handful of dense
  // etas. The threshold is deliberately EAGER (no headroom multiplier):
  // refactorizing resets floating-point drift, and measured end-to-end on
  // the steady-state models a tight cadence consistently LOWERS the total
  // pivot count — drift steers degenerate pricing onto longer vertex paths,
  // and that costs far more than the extra factorizations, which the
  // preorder keeps cheap.
  return lu_->eta_nonzeros() > (lu_->factor_nonzeros() + 2 * m_);
}

bool RevisedSimplex::refactor() {
  // Factors the current basis from scratch and recomputes the basic values,
  // resetting accumulated floating-point drift. Nonbasic columns parked at
  // a finite upper bound contribute like a shifted right-hand side.
  OBS_SPAN("factor");
  const auto t0 = PhaseClock::now();
  // Fill-reducing preorder: on these steady-state bases it cuts L+U fill
  // multi-fold, and every FTRAN/BTRAN and the refactorization itself are
  // priced by that fill. Engine-level policy (see BasisLu::Options).
  BasisLu::Options lu_options;
  lu_options.fill_preorder = true;
  auto lu = BasisLu::factor(A_, basis_, lu_options);
  if (!lu) {
    times_.factor_ns += ns_since(t0);
    return false;
  }
  lu_ = std::move(*lu);
  xb_ = rhs_;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j] && pos_of_col_[j] == kNone && ub_[j] > 0.0) {
      A_.add_scaled_column(j, -ub_[j], xb_);
    }
  }
  lu_->ftran(xb_, lu_ws_);
  for (double& v : xb_) {
    if (std::fabs(v) < kZeroTol) v = 0.0;
  }
  times_.factor_ns += ns_since(t0);
  if (lu_->factor_nonzeros() > times_.factor_fill) {
    times_.factor_fill = lu_->factor_nonzeros();
  }
  return true;
}

SimplexResult<double> solve_revised_simplex(const ExpandedModel& em,
                                            const SimplexOptions& options) {
  SimplexResult<double> result;
  RevisedSimplex simplex(em);
  result.status = simplex.cold_start(options, result.iterations);
  if (result.status == SolveStatus::kOptimal) {
    const std::vector<double> cost = simplex.phase2_costs();
    result.status = [&] {
      OBS_SPAN("phase2");
      return simplex.optimize(cost, options, result.iterations);
    }();
    if (result.status == SolveStatus::kOptimal) {
      simplex.extract(cost, result);
      return result;
    }
  }
  result.phase_times = simplex.phase_times();
  return result;
}

}  // namespace ssco::lp
