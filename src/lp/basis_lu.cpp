#include "lp/basis_lu.h"

#include <algorithm>
#include <cmath>

namespace ssco::lp {

namespace {

/// Threshold-pivoting relaxation used with the fill-reducing preorder: any
/// row within this factor of the column's largest magnitude is numerically
/// acceptable, freeing the Markowitz rule to pick the sparsest. 0.1 is the
/// classical default (Reid); growth is bounded by 1/0.1 per step and the
/// engines refactorize and certify against exact arithmetic anyway.
constexpr double kMarkowitzThreshold = 0.1;

/// Per-thread scratch of factor(), reused across refactorizations: the
/// simplex engines refactorize every few dozen pivots, and with the
/// preorder keeping elimination cheap the ~20 per-call allocations (and
/// their page faults) were a measurable share of refactorization cost.
/// thread_local because parallel certification factors concurrently.
/// Everything is 32-bit: the peel and the symbolic elimination are bound by
/// random access into these arrays, so halving their footprint is a direct
/// cache win (basis dimensions stay far below 2^31 — see BasisLu::Index).
struct FactorScratch {
  std::vector<std::int32_t> ccount, rstart, rfill, rcount, rdeg, pivoted_at,
      touched, reach, stack, rcols, front, back, cq, rq, bump, order, ufill,
      lfill;
  std::vector<char> col_done, row_done, marked;
  std::vector<double> x;
};

FactorScratch& factor_scratch() {
  static thread_local FactorScratch s;
  return s;
}

}  // namespace

std::optional<BasisLu> BasisLu::factor(const CscMatrix& A,
                                       const std::vector<std::size_t>& columns,
                                       const Options& options) {
  const std::size_t m = A.num_rows();
  if (columns.size() != m) return std::nullopt;

  BasisLu lu;
  FactorScratch& fs = factor_scratch();
  // Remaining-pattern row degrees for threshold-Markowitz pivoting; empty
  // (and the pivot rule untouched) unless fill_preorder is on.
  std::vector<Index>& rdeg = fs.rdeg;
  rdeg.clear();
  // Nonzeros of the selected basis columns — the natural reserve for the
  // factor arenas (fill typically lands within ~1.5x of it; a rare overflow
  // just regrows the arena). Reserving by the FULL matrix nnz instead paid
  // allocator and paging cost for the master's entire column pool on every
  // refactorization.
  std::size_t basis_nnz = 0;
  for (std::size_t p = 0; p < m; ++p) {
    basis_nnz +=
        static_cast<std::size_t>(A.col_end(columns[p]) - A.col_begin(columns[p]));
  }
  // Static fill-reducing preorder (see Options::fill_preorder): eliminate in
  // ascending column-nonzero order. pos_of_step stays EMPTY for the identity
  // order so the solve paths keep their no-permute fast path.
  if (options.fill_preorder) {
    // Tomlin-style static triangularization of the basis pattern. Peel
    // column singletons (one entry in a still-active row) to the FRONT —
    // each eliminates with that lone row as pivot, empty L column, zero
    // fill — and row singletons (one active column touches the row) to the
    // BACK, iterating both to closure since every peel can expose new
    // singletons. What survives is the irreducible "bump", ordered by
    // ascending remaining count; ALL fill is confined to it. Steady-state
    // basis matrices are almost entirely triangularizable, so the bump —
    // and with it the factor fill — is a small fraction of m.
    std::vector<Index>& ccount = fs.ccount;
    std::vector<Index>& rstart = fs.rstart;
    ccount.resize(m);
    rstart.assign(m + 1, 0);
    for (std::size_t p = 0; p < m; ++p) {
      const auto* b = A.col_begin(columns[p]);
      const auto* e = A.col_end(columns[p]);
      ccount[p] = static_cast<Index>(e - b);
      for (const auto* it = b; it != e; ++it) ++rstart[it->row + 1];
    }
    for (std::size_t r = 0; r < m; ++r) rstart[r + 1] += rstart[r];
    std::vector<Index>& rcols = fs.rcols;
    rcols.resize(basis_nnz);
    {
      std::vector<Index>& fill = fs.rfill;
      fill.assign(rstart.begin(), rstart.end() - 1);
      for (std::size_t p = 0; p < m; ++p) {
        for (const auto* it = A.col_begin(columns[p]);
             it != A.col_end(columns[p]); ++it) {
          rcols[fill[it->row]++] = static_cast<Index>(p);
        }
      }
    }
    std::vector<Index>& rcount = fs.rcount;
    rcount.resize(m);
    for (std::size_t r = 0; r < m; ++r) rcount[r] = rstart[r + 1] - rstart[r];
    rdeg.assign(rcount.begin(), rcount.end());
    std::vector<char>& col_done = fs.col_done;
    std::vector<char>& row_done = fs.row_done;
    col_done.assign(m, 0);
    row_done.assign(m, 0);
    std::vector<Index>& front = fs.front;
    std::vector<Index>& back = fs.back;
    std::vector<Index>& cq = fs.cq;
    std::vector<Index>& rq = fs.rq;
    front.clear();
    back.clear();
    cq.clear();
    rq.clear();
    for (std::size_t p = 0; p < m; ++p) {
      if (ccount[p] == 1) cq.push_back(static_cast<Index>(p));
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (rcount[r] == 1) rq.push_back(static_cast<Index>(r));
    }
    // Drops column p and row r from the active pattern, updating counts and
    // enqueueing any singleton either removal exposes.
    const auto retire = [&](std::size_t p, std::size_t r) {
      col_done[p] = 1;
      row_done[r] = 1;
      for (Index t = rstart[r]; t < rstart[r + 1]; ++t) {
        const auto q = static_cast<std::size_t>(rcols[t]);
        if (!col_done[q] && --ccount[q] == 1) {
          cq.push_back(static_cast<Index>(q));
        }
      }
      for (const auto* it = A.col_begin(columns[p]);
           it != A.col_end(columns[p]); ++it) {
        if (!row_done[it->row] && --rcount[it->row] == 1) {
          rq.push_back(static_cast<Index>(it->row));
        }
      }
    };
    while (!cq.empty() || !rq.empty()) {
      if (!cq.empty()) {
        const auto p = static_cast<std::size_t>(cq.back());
        cq.pop_back();
        if (col_done[p] || ccount[p] != 1) continue;  // stale queue entry
        for (const auto* it = A.col_begin(columns[p]);
             it != A.col_end(columns[p]); ++it) {
          if (!row_done[it->row]) {
            front.push_back(static_cast<Index>(p));
            retire(p, it->row);
            break;
          }
        }
      } else {
        const auto r = static_cast<std::size_t>(rq.back());
        rq.pop_back();
        if (row_done[r] || rcount[r] != 1) continue;
        for (Index t = rstart[r]; t < rstart[r + 1]; ++t) {
          const auto q = static_cast<std::size_t>(rcols[t]);
          if (!col_done[q]) {
            back.push_back(static_cast<Index>(q));
            retire(q, r);
            break;
          }
        }
      }
    }
    std::vector<Index>& bump = fs.bump;
    bump.clear();
    for (std::size_t p = 0; p < m; ++p) {
      if (!col_done[p]) bump.push_back(static_cast<Index>(p));
    }
    std::stable_sort(bump.begin(), bump.end(), [&](Index a, Index b) {
      return ccount[static_cast<std::size_t>(a)] <
             ccount[static_cast<std::size_t>(b)];
    });
    std::vector<Index>& order = fs.order;
    order.assign(front.begin(), front.end());
    order.insert(order.end(), bump.begin(), bump.end());
    order.insert(order.end(), back.rbegin(), back.rend());
    bool identity = true;
    for (std::size_t k = 0; k < m; ++k) {
      if (order[k] != static_cast<Index>(k)) {
        identity = false;
        break;
      }
    }
    if (!identity) lu.pos_of_step_.assign(order.begin(), order.end());
  }
  lu.pivot_row_.assign(m, 0);
  lu.l_start_.assign(1, 0);
  lu.u_start_.assign(1, 0);
  lu.l_start_.reserve(m + 1);
  lu.u_start_.reserve(m + 1);
  lu.l_idx_.reserve(basis_nnz);
  lu.l_val_.reserve(basis_nnz);
  lu.u_idx_.reserve(basis_nnz);
  lu.u_val_.reserve(basis_nnz);
  lu.diag_.assign(m, 0.0);

  // pivoted_at[i] = elimination step that chose row i, or -1 if still free.
  std::vector<Index>& pivoted_at = fs.pivoted_at;
  pivoted_at.assign(m, -1);
  std::vector<double>& x = fs.x;
  x.assign(m, 0.0);
  std::vector<Index>& touched = fs.touched;
  touched.clear();
  touched.reserve(m);
  // Gilbert–Peierls symbolic scratch: the steps whose pivot rows the working
  // column can reach through the L pattern (marked[] is the visited stamp,
  // reach the collected set, stack the DFS worklist). Reach size is the
  // column's fill, so the per-column cost tracks nnz instead of k.
  std::vector<char>& marked = fs.marked;
  marked.assign(m, 0);
  std::vector<Index>& reach = fs.reach;
  std::vector<Index>& stack = fs.stack;
  reach.clear();
  stack.clear();

  for (std::size_t k = 0; k < m; ++k) {
    // Basis position eliminated at this step (identity unless preordered).
    const std::size_t pos =
        lu.pos_of_step_.empty() ? k : static_cast<std::size_t>(lu.pos_of_step_[k]);
    // x = the basis column at `pos`, scattered dense; seed the symbolic DFS
    // with every scattered row that is already pivoted.
    for (const CscMatrix::Entry* e = A.col_begin(columns[pos]);
         e != A.col_end(columns[pos]); ++e) {
      x[e->row] = e->value;
      touched.push_back(static_cast<Index>(e->row));
      const Index p = pivoted_at[e->row];
      if (p >= 0 && !marked[p]) {
        marked[p] = 1;
        stack.push_back(p);
        // Depth-first closure over the L pattern: an update from step s can
        // only write rows in L's column s, whose pivot steps are strictly
        // LATER than s — so the reach set is exactly the candidate steps the
        // old dense/bitset probe would have visited, found in O(|reach| +
        // pattern edges) instead of O(k).
        while (!stack.empty()) {
          const Index s = stack.back();
          stack.pop_back();
          reach.push_back(s);
          const std::size_t lend = lu.l_start_[s + 1];
          for (std::size_t t = lu.l_start_[s]; t < lend; ++t) {
            const Index q = pivoted_at[static_cast<std::size_t>(lu.l_idx_[t])];
            if (q >= 0 && !marked[q]) {
              marked[q] = 1;
              stack.push_back(q);
            }
          }
        }
      }
    }
    // Ascending step order IS a topological order of the reach DAG (edges
    // only point to later steps), and it is the exact order the previous
    // probe loop visited contributing steps in — so the numeric update pass
    // below performs the SAME floating-point operations in the SAME order,
    // including the xp == 0.0 skip of entries that cancelled numerically.
    std::sort(reach.begin(), reach.end());
    for (const Index j : reach) {
      marked[j] = 0;
      const double xp = x[lu.pivot_row_[j]];
      if (xp == 0.0) continue;
      const std::size_t lend = lu.l_start_[j + 1];
      for (std::size_t t = lu.l_start_[j]; t < lend; ++t) {
        const auto row = static_cast<std::size_t>(lu.l_idx_[t]);
        if (x[row] == 0.0) touched.push_back(static_cast<Index>(row));
        x[row] -= lu.l_val_[t] * xp;
      }
    }
    reach.clear();
    // Pivot choice over the rows not yet chosen, in touch order.
    Index pivot = -1;
    double best = 0.0;
    if (rdeg.empty()) {
      // Legacy partial pivoting: strictly largest magnitude — the tie-break
      // order the old accumulator used, preserved so degenerate models land
      // on the identical vertex.
      for (const Index row : touched) {
        if (pivoted_at[row] >= 0) continue;
        const double mag = std::fabs(x[row]);
        if (mag > best) {
          best = mag;
          pivot = row;
        }
      }
    } else {
      // Threshold-Markowitz (fill_preorder only): among the numerically
      // acceptable rows — within kMarkowitzThreshold of the largest
      // magnitude — pick the one that appears in the FEWEST remaining
      // columns. The L column's length is fixed by the touched set, but the
      // pivot row seeds the update DFS of every future column containing
      // it, so a low-degree pivot row keeps fill out of the columns still
      // to come; ties go to the larger magnitude (stability).
      for (const Index row : touched) {
        if (pivoted_at[row] >= 0) continue;
        const double mag = std::fabs(x[row]);
        if (mag > best) best = mag;
      }
      const double floor_mag = kMarkowitzThreshold * best;
      Index best_deg = 0;
      double best_mag = 0.0;
      for (const Index row : touched) {
        if (pivoted_at[row] >= 0) continue;
        const double mag = std::fabs(x[row]);
        if (mag < floor_mag) continue;
        const Index deg = rdeg[row];
        if (pivot < 0 || deg < best_deg ||
            (deg == best_deg && mag > best_mag)) {
          pivot = row;
          best_deg = deg;
          best_mag = mag;
        }
      }
    }
    if (pivot < 0 || best < kPivotTolerance) return std::nullopt;

    lu.pivot_row_[k] = static_cast<std::size_t>(pivot);
    pivoted_at[pivot] = static_cast<Index>(k);
    const double dk = x[pivot];
    lu.diag_[k] = dk;
    for (const Index row : touched) {
      const double v = x[row];
      x[row] = 0.0;  // reset the accumulator as we drain it
      const Index p = pivoted_at[row];
      if (row == pivot || std::fabs(v) <= kDropTolerance) continue;
      if (p >= 0) {
        lu.u_idx_.push_back(p);
        lu.u_val_.push_back(v);
      } else {
        lu.l_idx_.push_back(row);
        lu.l_val_.push_back(v / dk);
      }
    }
    lu.l_start_.push_back(lu.l_idx_.size());
    lu.u_start_.push_back(lu.u_idx_.size());
    touched.clear();
    if (!rdeg.empty()) {
      // This column leaves the remaining pattern: drop its original entries
      // from the Markowitz row degrees.
      for (const CscMatrix::Entry* e = A.col_begin(columns[pos]);
           e != A.col_end(columns[pos]); ++e) {
        --rdeg[e->row];
      }
    }
  }
  lu.factor_nnz_ = m + lu.l_idx_.size() + lu.u_idx_.size();
  lu.step_of_row_.assign(pivoted_at.begin(), pivoted_at.end());
  if (!lu.pos_of_step_.empty()) {
    lu.step_of_pos_.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      lu.step_of_pos_[static_cast<std::size_t>(lu.pos_of_step_[k])] =
          static_cast<Index>(k);
    }
  }

  // Transposed mirrors for the push-form BTRAN solves, by counting sort —
  // entries of row j (ur) / original row r (ltrans) end up ordered by
  // elimination step, exactly the order the old per-row push lists held.
  lu.ur_start_.assign(m + 1, 0);
  for (const Index pos : lu.u_idx_) ++lu.ur_start_[pos + 1];
  for (std::size_t i = 0; i < m; ++i) lu.ur_start_[i + 1] += lu.ur_start_[i];
  lu.ur_idx_.resize(lu.u_idx_.size());
  lu.ur_val_.resize(lu.u_idx_.size());
  lu.lt_start_.assign(m + 1, 0);
  for (const Index row : lu.l_idx_) ++lu.lt_start_[row + 1];
  for (std::size_t i = 0; i < m; ++i) lu.lt_start_[i + 1] += lu.lt_start_[i];
  lu.lt_idx_.resize(lu.l_idx_.size());
  lu.lt_val_.resize(lu.l_idx_.size());
  {
    std::vector<Index>& ufill = fs.ufill;
    std::vector<Index>& lfill = fs.lfill;
    ufill.assign(lu.ur_start_.begin(), lu.ur_start_.end() - 1);
    lfill.assign(lu.lt_start_.begin(), lu.lt_start_.end() - 1);
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t t = lu.u_start_[k]; t < lu.u_start_[k + 1]; ++t) {
        const std::size_t at = ufill[lu.u_idx_[t]]++;
        lu.ur_idx_[at] = static_cast<Index>(k);
        lu.ur_val_[at] = lu.u_val_[t];
      }
      for (std::size_t t = lu.l_start_[k]; t < lu.l_start_[k + 1]; ++t) {
        const std::size_t at = lfill[lu.l_idx_[t]]++;
        lu.lt_idx_[at] = static_cast<Index>(lu.pivot_row_[k]);
        lu.lt_val_[at] = lu.l_val_[t];
      }
    }
  }
  return lu;
}

std::size_t BasisLu::append_identity_row() {
  // The extended basis is block-diagonal [[B, 0], [0, 1]]: no existing basis
  // column touches the new row and the new column is the unit vector on it,
  // so the factorization extends by one trivial elimination step — pivot at
  // the new row, diagonal 1, empty L and U columns — without touching any
  // existing factor or eta entry (all their indices stay valid).
  const std::size_t row = dim();
  // Under a fill-reducing preorder the new step eliminates the new position.
  if (!pos_of_step_.empty()) {
    pos_of_step_.push_back(static_cast<Index>(row));
    step_of_pos_.push_back(static_cast<Index>(row));
  }
  pivot_row_.push_back(row);
  step_of_row_.push_back(static_cast<Index>(row));
  l_start_.push_back(l_idx_.size());
  u_start_.push_back(u_idx_.size());
  diag_.push_back(1.0);
  // Transposed mirrors: the new position has no U row entries and the new
  // original row no L-transpose entries, so both offset tables just repeat
  // their last offset.
  ur_start_.push_back(ur_start_.back());
  lt_start_.push_back(lt_start_.back());
  factor_nnz_ += 1;
  return row;
}

const Support& BasisLu::ftran(std::vector<double>& x, Workspace& ws) const {
  ws.rows.clear();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0) ws.rows.push_back(i);
  }
  return ftran(x, ws.rows, ws);
}

// Every loop below visits the steps (positions) that can hold a nonzero in
// the order a dense sweep over all of them would, and skips a
// floating-point operation only when an operand is exactly zero. The
// results therefore match such a sweep (the reference loops in
// tests/lp/basis_lu_test.cpp) bit for bit, except for the sign of zeros:
// the sweep leaves 0.0 / d, carrying d's sign, where this leaves +0.0.
const Support& BasisLu::ftran(std::vector<double>& x,
                              std::span<const std::size_t> rows,
                              Workspace& ws) const {
  const std::size_t m = dim();
  const std::size_t words = (m + 63) / 64;
  // Steps whose pivot row may be nonzero.
  Support& steps = ws.pending;
  steps.assign(words, 0);
  const auto mark = [](Support& bits, std::size_t k) {
    bits[k / 64] |= std::uint64_t{1} << (k % 64);
  };
  for (const std::size_t row : rows) {
    mark(steps, static_cast<std::size_t>(step_of_row_[row]));
  }
  // Apply L^-1 (row space), lowest step first. Column k of L holds rows
  // pivoted at later steps only, so every bit it sets lies above the
  // cursor and the drain reaches it in ascending order.
  {
    const Index* const idx = l_idx_.data();
    const double* const val = l_val_.data();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t done = 0;
      for (std::uint64_t todo; (todo = steps[w] & ~done) != 0;) {
        const std::uint64_t low = todo & (~todo + 1);
        done |= low;
        const std::size_t k =
            w * 64 + static_cast<std::size_t>(std::countr_zero(low));
        const double xp = x[pivot_row_[k]];
        if (xp == 0.0) continue;
        const std::size_t end = l_start_[k + 1];
        for (std::size_t t = l_start_[k]; t < end; ++t) {
          const auto row = static_cast<std::size_t>(idx[t]);
          x[row] -= val[t] * xp;
          mark(steps, static_cast<std::size_t>(step_of_row_[row]));
        }
      }
    }
  }
  // Move into step space; x is all zero afterwards.
  std::vector<double>& y = ws.steps;
  y.resize(m);
  for_each_bit(steps, [&](std::size_t k) {
    y[k] = x[pivot_row_[k]];
    x[pivot_row_[k]] = 0.0;
  });
  // Backsolve U, highest step first: column k of U holds earlier steps
  // only, so new bits land below the cursor.
  {
    const Index* const idx = u_idx_.data();
    const double* const val = u_val_.data();
    for (std::size_t w = words; w-- > 0;) {
      std::uint64_t done = 0;
      for (std::uint64_t todo; (todo = steps[w] & ~done) != 0;) {
        const int b = 63 - std::countl_zero(todo);
        done |= std::uint64_t{1} << b;
        const std::size_t k = w * 64 + static_cast<std::size_t>(b);
        const double t = y[k] / diag_[k];
        y[k] = t;
        if (t == 0.0) continue;
        const std::size_t end = u_start_[k + 1];
        for (std::size_t tt = u_start_[k]; tt < end; ++tt) {
          const auto j = static_cast<std::size_t>(idx[tt]);
          y[j] -= val[tt] * t;
          mark(steps, j);
        }
      }
    }
  }
  // y is in STEP space; under a preorder (pos_of_step_ non-empty) scatter
  // it into position space. Either way ws.steps is all zero again after.
  Support& support = ws.support;
  if (pos_of_step_.empty()) {
    x.swap(y);
    support.swap(steps);
  } else {
    support.assign(words, 0);
    for_each_bit(steps, [&](std::size_t k) {
      const auto pos = static_cast<std::size_t>(pos_of_step_[k]);
      x[pos] = y[k];
      y[k] = 0.0;
      mark(support, pos);
    });
  }
  // Product-form updates, oldest first. An eta whose pivot entry is zero
  // changes nothing.
  {
    const Index* const idx = eta_idx_.data();
    const double* const val = eta_val_.data();
    for (std::size_t e = 0; e < eta_r_.size(); ++e) {
      const auto r = static_cast<std::size_t>(eta_r_[e]);
      if (x[r] == 0.0) continue;
      const double t = x[r] / eta_pivot_[e];
      x[r] = t;
      if (t == 0.0) continue;
      const std::size_t end = eta_start_[e + 1];
      for (std::size_t tt = eta_start_[e]; tt < end; ++tt) {
        const auto i = static_cast<std::size_t>(idx[tt]);
        x[i] -= val[tt] * t;
        mark(support, i);
      }
    }
  }
  return support;
}

void BasisLu::btran(std::vector<double>& x, Workspace& ws) const {
  const std::size_t m = dim();
  // Positions where the running vector may be nonzero.
  Support& live = ws.pending;
  live.assign((m + 63) / 64, 0);
  for (std::size_t k = 0; k < m; ++k) {
    if (x[k] != 0.0) live[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  // Transposed eta file, newest first: each eta contributes a gather dot
  // product over the terms where the running vector is nonzero — the
  // intersection of the eta's word bitset with `live`, walked in ascending
  // position, i.e. the eta's term order minus the terms that multiply a zero.
  // Accumulation stays in strict term order — NOT unrolled into
  // independent accumulators — because reassociating it perturbs the pivot
  // path and thereby which optimal VERTEX degenerate models land on;
  // downstream consumers (tree extraction, schedules) are vertex-sensitive
  // even though the objective is not.
  {
    const Index* const idx = eta_idx_.data();
    const double* const val = eta_val_.data();
    for (std::size_t e = eta_r_.size(); e-- > 0;) {
      const auto r = static_cast<std::size_t>(eta_r_[e]);
      double t = x[r];
      const std::size_t end = eta_word_start_[e + 1];
      for (std::size_t g = eta_word_start_[e]; g < end; ++g) {
        const EtaWord& ew = eta_words_[g];
        for (std::uint64_t hit = ew.bits & live[ew.word]; hit != 0;
             hit &= hit - 1) {
          const std::uint64_t below = (hit & (~hit + 1)) - 1;
          const std::size_t tt =
              ew.first + static_cast<std::size_t>(std::popcount(ew.bits & below));
          t -= val[tt] * x[static_cast<std::size_t>(idx[tt])];
        }
      }
      t /= eta_pivot_[e];
      x[r] = t;
      if (t != 0.0) live[r / 64] |= std::uint64_t{1} << (r % 64);
    }
  }
  // Forward solve U' w = c, PUSH form: once w_k is final its contributions
  // scatter along row k of U, and a zero w_k — the overwhelmingly common
  // case for the near-singleton vectors the simplex prices with — costs
  // nothing. U is indexed by STEP; under a preorder the live positions of
  // the input are first gathered into step space (ws.scratch2), the
  // identity order solves in x directly.
  std::vector<double>* w = &x;
  if (!pos_of_step_.empty()) {
    ws.scratch2.assign(m, 0.0);
    for_each_bit(live, [&](std::size_t pos) {
      ws.scratch2[static_cast<std::size_t>(step_of_pos_[pos])] = x[pos];
    });
    w = &ws.scratch2;
  }
  {
    double* const wv = w->data();
    const Index* const idx = ur_idx_.data();
    const double* const val = ur_val_.data();
    for (std::size_t k = 0; k < m; ++k) {
      const double t = wv[k];
      if (t == 0.0) continue;
      const double wk = t / diag_[k];
      wv[k] = wk;
      const std::size_t end = ur_start_[k + 1];
      for (std::size_t tt = ur_start_[k]; tt < end; ++tt) {
        wv[idx[tt]] -= val[tt] * wk;
      }
    }
  }
  // Permute back to row space (the permutation writes every entry) and
  // apply L^-T, newest elimination step first, again in push form:
  // y[pivot_row_[k]] is final when step k runs (ltrans only targets earlier
  // elimination steps).
  std::vector<double>& y = ws.scratch;
  y.resize(m);
  for (std::size_t k = 0; k < m; ++k) y[pivot_row_[k]] = (*w)[k];
  {
    const Index* const idx = lt_idx_.data();
    const double* const val = lt_val_.data();
    for (std::size_t k = m; k-- > 0;) {
      const std::size_t row = pivot_row_[k];
      const double z = y[row];
      if (z == 0.0) continue;
      const std::size_t end = lt_start_[row + 1];
      for (std::size_t tt = lt_start_[row]; tt < end; ++tt) {
        y[idx[tt]] -= val[tt] * z;
      }
    }
  }
  x.swap(y);
}

bool BasisLu::update(std::size_t r, const std::vector<double>& w,
                     const Support& nonzeros) {
  const double pivot = w[r];
  if (std::fabs(pivot) < kPivotTolerance) return false;
  const std::size_t first_word = eta_words_.size();
  for_each_bit(nonzeros, [&](std::size_t i) {
    if (i == r || !(std::fabs(w[i]) > kDropTolerance)) return;
    const auto word = static_cast<Index>(i / 64);
    if (eta_words_.size() == first_word || eta_words_.back().word != word) {
      eta_words_.push_back({eta_idx_.size(), 0, word});
    }
    eta_words_.back().bits |= std::uint64_t{1} << (i % 64);
    eta_idx_.push_back(static_cast<Index>(i));
    eta_val_.push_back(w[i]);
  });
  eta_word_start_.push_back(eta_words_.size());
  eta_nnz_ += eta_idx_.size() - eta_start_.back() + 1;
  eta_start_.push_back(eta_idx_.size());
  eta_r_.push_back(static_cast<Index>(r));
  eta_pivot_.push_back(pivot);
  return true;
}

}  // namespace ssco::lp
