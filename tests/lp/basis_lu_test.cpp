#include "lp/basis_lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lp/sparse.h"

namespace ssco::lp {
namespace {

/// Dense column-major helper: builds a CscMatrix from a dense matrix given
/// as columns[j][i].
CscMatrix from_dense(const std::vector<std::vector<double>>& columns) {
  const std::size_t n = columns.size();
  CscMatrix m(n);
  for (const auto& col : columns) {
    for (std::size_t i = 0; i < n; ++i) {
      if (col[i] != 0.0) m.push_entry(i, col[i]);
    }
    m.end_column();
  }
  return m;
}

/// Every position of an n-vector: a valid support for any hand-built w.
Support all_positions(std::size_t n) {
  Support bits((n + 63) / 64, 0);
  for (std::size_t k = 0; k < n; ++k) bits[k / 64] |= std::uint64_t{1} << (k % 64);
  return bits;
}

std::vector<std::size_t> identity_selection(std::size_t n) {
  std::vector<std::size_t> cols(n);
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  return cols;
}

/// Dense mat-vec of the column-major matrix (for verification).
std::vector<double> mat_vec(const std::vector<std::vector<double>>& columns,
                          const std::vector<double>& x) {
  std::vector<double> y(columns.size(), 0.0);
  for (std::size_t j = 0; j < columns.size(); ++j) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      y[i] += columns[j][i] * x[j];
    }
  }
  return y;
}

std::vector<double> mat_tvec(
    const std::vector<std::vector<double>>& columns,
    const std::vector<double>& y) {
  std::vector<double> c(columns.size(), 0.0);
  for (std::size_t j = 0; j < columns.size(); ++j) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      c[j] += columns[j][i] * y[i];
    }
  }
  return c;
}

// B stored column-major: B = [[2,0,1],[1,3,0],[0,1,1]] as rows.
const std::vector<std::vector<double>> kB = {
    {2.0, 0.0, 1.0}, {1.0, 3.0, 0.0}, {0.0, 1.0, 1.0}};

TEST(BasisLu, FtranSolvesBxEqualsB) {
  CscMatrix m = from_dense(kB);
  auto lu = BasisLu::factor(m, identity_selection(3));
  ASSERT_TRUE(lu.has_value());
  std::vector<double> x = {1.0, -2.0, 4.0};  // rhs in row space
  std::vector<double> rhs = x;
  lu->ftran(x);
  std::vector<double> back = mat_vec(kB, x);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(back[i], rhs[i], 1e-12) << "component " << i;
  }
}

TEST(BasisLu, BtranSolvesTransposedSystem) {
  CscMatrix m = from_dense(kB);
  auto lu = BasisLu::factor(m, identity_selection(3));
  ASSERT_TRUE(lu.has_value());
  std::vector<double> c = {3.0, 0.5, -1.0};  // cost in position space
  std::vector<double> y = c;
  lu->btran(y);
  std::vector<double> back = mat_tvec(kB, y);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(back[k], c[k], 1e-12) << "component " << k;
  }
}

TEST(BasisLu, ColumnSelectionPermutesBasis) {
  // Select columns (2, 0, 1) of B: position k must line up with cols[k].
  CscMatrix m = from_dense(kB);
  std::vector<std::size_t> cols = {2, 0, 1};
  auto lu = BasisLu::factor(m, cols);
  ASSERT_TRUE(lu.has_value());
  std::vector<double> rhs = {1.0, 2.0, 3.0};
  std::vector<double> x = rhs;
  lu->ftran(x);
  // Recompose: sum_k x[k] * B[:, cols[k]] == rhs.
  std::vector<double> back(3, 0.0);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < 3; ++i) back[i] += kB[cols[k]][i] * x[k];
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-12);
}

TEST(BasisLu, SingularMatrixIsRejected) {
  // Two proportional columns.
  CscMatrix m = from_dense({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_FALSE(BasisLu::factor(m, identity_selection(2)).has_value());
}

TEST(BasisLu, WrongSelectionSizeIsRejected) {
  CscMatrix m = from_dense(kB);
  EXPECT_FALSE(BasisLu::factor(m, {0, 1}).has_value());
}

TEST(BasisLu, EtaUpdateMatchesFreshFactorization) {
  // Replace basis position 1 with a new column and check FTRAN/BTRAN against
  // a from-scratch factorization of the updated matrix.
  CscMatrix m(3);
  for (const auto& col : kB) {
    for (std::size_t i = 0; i < 3; ++i) {
      if (col[i] != 0.0) m.push_entry(i, col[i]);
    }
    m.end_column();
  }
  m.add_column({{0, 1.0}, {1, 1.0}, {2, 2.0}});  // column index 3

  auto lu = BasisLu::factor(m, identity_selection(3));
  ASSERT_TRUE(lu.has_value());
  // w = B^-1 a for the entering column.
  std::vector<double> w(3, 0.0);
  std::vector<std::size_t> rows;
  m.scatter_column(3, w, rows);
  BasisLu::Workspace ws;
  const Support nonzeros = lu->ftran(w, rows, ws);
  ASSERT_TRUE(lu->update(1, w, nonzeros));
  EXPECT_EQ(lu->updates(), 1u);

  auto fresh = BasisLu::factor(m, {0, 3, 2});
  ASSERT_TRUE(fresh.has_value());

  std::vector<double> rhs = {0.5, -1.0, 2.0};
  std::vector<double> x1 = rhs, x2 = rhs;
  lu->ftran(x1);
  fresh->ftran(x2);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_NEAR(x1[k], x2[k], 1e-12);

  std::vector<double> c = {1.0, 2.0, -0.5};
  std::vector<double> y1 = c, y2 = c;
  lu->btran(y1);
  fresh->btran(y2);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(BasisLu, UpdateRejectsTinyPivot) {
  CscMatrix m = from_dense(kB);
  auto lu = BasisLu::factor(m, identity_selection(3));
  ASSERT_TRUE(lu.has_value());
  std::vector<double> w = {1.0, 1e-14, 3.0};  // pivot at position 1 is ~0
  EXPECT_FALSE(lu->update(1, w, all_positions(3)));
  EXPECT_EQ(lu->updates(), 0u);
}

TEST(BasisLu, EmptyBasis) {
  CscMatrix m(0);
  auto lu = BasisLu::factor(m, {});
  ASSERT_TRUE(lu.has_value());
  std::vector<double> x;
  lu->ftran(x);
  lu->btran(x);
  EXPECT_TRUE(x.empty());
}

TEST(BasisLu, FillAccountingDrivesAdaptiveRefactorization) {
  // factor_nonzeros() counts L + U + diagonal; eta_nonzeros() grows by one
  // pivot term plus the off-pivot entries per absorbed update. The simplex
  // drivers compare the two to decide when a refactorization pays.
  CscMatrix m = from_dense(kB);
  auto lu = BasisLu::factor(m, identity_selection(3));
  ASSERT_TRUE(lu.has_value());
  EXPECT_GE(lu->factor_nonzeros(), 3u);  // at least the diagonal
  EXPECT_EQ(lu->eta_nonzeros(), 0u);

  std::vector<double> w = {1.0, 2.0, 0.0};  // two nonzeros: pivot + 1 term
  ASSERT_TRUE(lu->update(0, w, all_positions(3)));
  EXPECT_EQ(lu->eta_nonzeros(), 2u);
  std::vector<double> w2 = {0.5, 1.5, 2.5};
  ASSERT_TRUE(lu->update(2, w2, all_positions(3)));
  EXPECT_EQ(lu->eta_nonzeros(), 5u);
}

// --- Gilbert–Peierls vs dense-probe reference. ----------------------------
//
// The GP factorization's contract is not "close to" the classic left-looking
// probe loop — it is the SAME floating-point operations in the SAME order,
// with the symbolic DFS merely skipping steps whose contribution is zero.
// The reference below re-implements the old dense probe (visit EVERY prior
// elimination step in ascending order, skip on a zero pivot value) plus
// solve loops mirroring BasisLu's, so FTRAN/BTRAN results must match bit for
// bit, not just to tolerance.

struct RefLu {
  std::vector<std::size_t> pivot_row;
  // Column k of L: (original row, multiplier) in drain order.
  std::vector<std::vector<std::pair<std::size_t, double>>> lcol;
  // Column k of U above the diagonal: (position j < k, value) in drain order.
  std::vector<std::vector<std::pair<std::size_t, double>>> ucol;
  std::vector<double> diag;

  [[nodiscard]] std::size_t nonzeros() const {
    std::size_t nnz = diag.size();
    for (const auto& c : lcol) nnz += c.size();
    for (const auto& c : ucol) nnz += c.size();
    return nnz;
  }
};

std::optional<RefLu> ref_factor(const CscMatrix& A,
                                const std::vector<std::size_t>& columns) {
  const std::size_t m = A.num_rows();
  if (columns.size() != m) return std::nullopt;
  RefLu lu;
  lu.pivot_row.assign(m, 0);
  lu.diag.assign(m, 0.0);
  lu.lcol.resize(m);
  lu.ucol.resize(m);
  std::vector<std::size_t> pivoted_at(m, m);
  std::vector<double> x(m, 0.0);
  std::vector<std::size_t> touched;
  for (std::size_t k = 0; k < m; ++k) {
    for (const CscMatrix::Entry* e = A.col_begin(columns[k]);
         e != A.col_end(columns[k]); ++e) {
      x[e->row] = e->value;
      touched.push_back(e->row);
    }
    // The dense probe: every prior step, ascending, zero-skip.
    for (std::size_t j = 0; j < k; ++j) {
      const double xp = x[lu.pivot_row[j]];
      if (xp == 0.0) continue;
      for (const auto& [row, mult] : lu.lcol[j]) {
        if (x[row] == 0.0) touched.push_back(row);
        x[row] -= mult * xp;
      }
    }
    std::size_t pivot = m;
    double best = 0.0;
    for (std::size_t row : touched) {
      if (pivoted_at[row] != m) continue;
      const double mag = std::fabs(x[row]);
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    if (pivot == m || best < BasisLu::kPivotTolerance) {
      return std::nullopt;
    }
    lu.pivot_row[k] = pivot;
    pivoted_at[pivot] = k;
    const double dk = x[pivot];
    lu.diag[k] = dk;
    for (std::size_t row : touched) {
      const double v = x[row];
      x[row] = 0.0;
      const std::size_t p = pivoted_at[row];
      if (row == pivot || std::fabs(v) <= BasisLu::kDropTolerance) continue;
      if (p != m) {
        lu.ucol[k].emplace_back(p, v);
      } else {
        lu.lcol[k].emplace_back(row, v / dk);
      }
    }
    touched.clear();
  }
  return lu;
}

void ref_ftran(const RefLu& lu, std::vector<double>& x) {
  const std::size_t m = lu.pivot_row.size();
  for (std::size_t k = 0; k < m; ++k) {
    const double xp = x[lu.pivot_row[k]];
    if (xp == 0.0) continue;
    for (const auto& [row, val] : lu.lcol[k]) x[row] -= val * xp;
  }
  std::vector<double> y(m);
  for (std::size_t k = 0; k < m; ++k) y[k] = x[lu.pivot_row[k]];
  for (std::size_t k = m; k-- > 0;) {
    const double t = y[k] / lu.diag[k];
    y[k] = t;
    if (t == 0.0) continue;
    for (const auto& [p, val] : lu.ucol[k]) y[p] -= val * t;
  }
  x.swap(y);
}

void ref_btran(const RefLu& lu, std::vector<double>& x) {
  const std::size_t m = lu.pivot_row.size();
  // Transposed mirrors in the same entry order BasisLu's counting sort
  // produces (ascending column within each row).
  std::vector<std::vector<std::pair<std::size_t, double>>> ur(m), lt(m);
  for (std::size_t k = 0; k < m; ++k) {
    for (const auto& [p, val] : lu.ucol[k]) ur[p].emplace_back(k, val);
    for (const auto& [row, val] : lu.lcol[k]) {
      lt[row].emplace_back(lu.pivot_row[k], val);
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    const double t = x[k];
    if (t == 0.0) continue;
    const double wk = t / lu.diag[k];
    x[k] = wk;
    for (const auto& [kk, val] : ur[k]) x[kk] -= val * wk;
  }
  std::vector<double> y(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) y[lu.pivot_row[k]] = x[k];
  for (std::size_t k = m; k-- > 0;) {
    const std::size_t row = lu.pivot_row[k];
    const double z = y[row];
    if (z == 0.0) continue;
    for (const auto& [target, val] : lt[row]) y[target] -= val * z;
  }
  x.swap(y);
}

std::vector<std::vector<double>> random_dense(std::uint64_t seed,
                                              std::size_t m) {
  std::mt19937_64 rng(seed * 7919 + 13);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::vector<double>> cols(m, std::vector<double>(m, 0.0));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      if (coin(rng) < 0.25) cols[j][i] = val(rng);
    }
    // Diagonal boost keeps the sweep's selections nonsingular so nearly
    // every seed exercises a full factorization.
    cols[j][j] += 6.0;
  }
  return cols;
}

void expect_bit_identical_solves(const BasisLu& lu, const RefLu& ref,
                                 std::uint64_t seed, std::size_t m) {
  std::mt19937_64 rng(seed * 31 + 5);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  std::vector<double> b(m), c(m);
  for (std::size_t i = 0; i < m; ++i) {
    b[i] = val(rng);
    // Near-singleton cost vectors are BTRAN's hot case; zero most of c.
    c[i] = (i % 3 == 0) ? val(rng) : 0.0;
  }
  std::vector<double> x1 = b, x2 = b;
  lu.ftran(x1);
  ref_ftran(ref, x2);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(x1[i], x2[i]) << "ftran seed " << seed << " component " << i;
  }
  std::vector<double> y1 = c, y2 = c;
  lu.btran(y1);
  ref_btran(ref, y2);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(y1[i], y2[i]) << "btran seed " << seed << " component " << i;
  }
}

TEST(BasisLu, GilbertPeierlsMatchesDenseProbeReferenceSweep) {
  std::size_t factored = 0;
  for (std::uint64_t seed = 0; seed < 44; ++seed) {
    const std::size_t m = 4 + seed % 24;
    CscMatrix A = from_dense(random_dense(seed, m));
    std::vector<std::size_t> cols = identity_selection(m);
    if (seed % 2 == 1) {
      std::mt19937_64 rng(seed);
      std::shuffle(cols.begin(), cols.end(), rng);
    }
    auto lu = BasisLu::factor(A, cols);
    auto ref = ref_factor(A, cols);
    ASSERT_EQ(lu.has_value(), ref.has_value()) << "seed " << seed;
    if (!lu.has_value()) continue;
    ++factored;
    EXPECT_EQ(lu->factor_nonzeros(), ref->nonzeros()) << "seed " << seed;
    expect_bit_identical_solves(*lu, *ref, seed, m);
  }
  EXPECT_GE(factored, 40u);
}

TEST(BasisLu, GilbertPeierlsHandlesSingularLeadingMinor) {
  // Every leading minor is singular until the last: the factorization must
  // pivot across rows, and the reference must land on the same permutation.
  const std::vector<std::vector<double>> anti = {
      {0.0, 0.0, 0.0, 2.0},
      {0.0, 0.0, 3.0, 0.0},
      {0.0, 5.0, 0.0, 1.0},
      {7.0, 0.0, 2.0, 0.0}};
  CscMatrix A = from_dense(anti);
  auto lu = BasisLu::factor(A, identity_selection(4));
  auto ref = ref_factor(A, identity_selection(4));
  ASSERT_TRUE(lu.has_value());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(lu->factor_nonzeros(), ref->nonzeros());
  expect_bit_identical_solves(*lu, *ref, 99, 4);
}

TEST(BasisLu, GilbertPeierlsHandlesHeavyFill) {
  // Arrow matrix pointing the wrong way: dense first row and column plus a
  // diagonal. Partial pivoting on it produces near-total fill-in, the
  // worst case for the symbolic reach (every step reaches every later one).
  const std::size_t m = 12;
  std::vector<std::vector<double>> arrow(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    arrow[0][i] = 1.0 + static_cast<double>(i % 4);   // dense column 0
    arrow[i][0] = 2.0 + static_cast<double>(i % 3);   // dense row 0
    arrow[i][i] = 0.5 + static_cast<double>(i);
  }
  CscMatrix A = from_dense(arrow);
  auto lu = BasisLu::factor(A, identity_selection(m));
  auto ref = ref_factor(A, identity_selection(m));
  ASSERT_TRUE(lu.has_value());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(lu->factor_nonzeros(), ref->nonzeros());
  expect_bit_identical_solves(*lu, *ref, 77, m);
}

TEST(BasisLu, AppendIdentityRowMatchesFreshBlockDiagFactor) {
  // Factor B, absorb one eta, THEN extend by an appended identity row; the
  // result must be bitwise the same operator as factoring the 4x4
  // block-diagonal [[B,0],[0,1]] from scratch and absorbing the same eta
  // (zero-extended). In particular the pre-existing eta file stays valid.
  CscMatrix m3(3);
  for (const auto& col : kB) {
    for (std::size_t i = 0; i < 3; ++i) {
      if (col[i] != 0.0) m3.push_entry(i, col[i]);
    }
    m3.end_column();
  }
  m3.add_column({{0, 1.0}, {1, 1.0}, {2, 2.0}});  // entering column, index 3

  auto lu = BasisLu::factor(m3, identity_selection(3));
  ASSERT_TRUE(lu.has_value());
  std::vector<double> w(3, 0.0);
  std::vector<std::size_t> rows;
  m3.scatter_column(3, w, rows);
  BasisLu::Workspace ws;
  const Support nonzeros = lu->ftran(w, rows, ws);
  ASSERT_TRUE(lu->update(1, w, nonzeros));
  const std::size_t appended = lu->append_identity_row();
  EXPECT_EQ(appended, 3u);
  EXPECT_EQ(lu->dim(), 4u);

  std::vector<std::vector<double>> ext(4, std::vector<double>(4, 0.0));
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 3; ++i) ext[j][i] = kB[j][i];
  }
  ext[3][3] = 1.0;
  auto fresh = BasisLu::factor(from_dense(ext), identity_selection(4));
  ASSERT_TRUE(fresh.has_value());
  std::vector<double> w4 = {w[0], w[1], w[2], 0.0};
  ASSERT_TRUE(fresh->update(1, w4, all_positions(4)));
  EXPECT_EQ(lu->factor_nonzeros(), fresh->factor_nonzeros());

  const std::vector<double> rhs = {0.5, -1.0, 2.0, 3.0};
  std::vector<double> x1 = rhs, x2 = rhs;
  lu->ftran(x1);
  fresh->ftran(x2);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(x1[i], x2[i]) << i;
  const std::vector<double> cost = {1.0, 0.0, -0.5, 2.0};
  std::vector<double> y1 = cost, y2 = cost;
  lu->btran(y1);
  fresh->btran(y2);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(y1[i], y2[i]) << i;
}

TEST(BasisLu, ConcurrentSolvesWithOwnWorkspacesAgree) {
  // ftran/btran write only into the caller-owned workspace, so many threads
  // may solve against one factorization concurrently — the contract that
  // unblocks parallel certificate verification. Hammer one BasisLu from
  // several threads and compare every result against a sequential solve.
  CscMatrix m = from_dense(kB);
  auto lu = BasisLu::factor(m, identity_selection(3));
  ASSERT_TRUE(lu.has_value());

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::vector<double>> expected_f(kThreads), expected_b(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    std::vector<double> x = {1.0 + t, -2.0, 4.0 + t};
    expected_f[t] = x;
    lu->ftran(expected_f[t]);
    expected_b[t] = x;
    lu->btran(expected_b[t]);
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BasisLu::Workspace ws;
      for (int iter = 0; iter < kIters; ++iter) {
        std::vector<double> x = {1.0 + t, -2.0, 4.0 + t};
        std::vector<double> f = x;
        lu->ftran(f, ws);
        std::vector<double> b = x;
        lu->btran(b, ws);
        if (f != expected_f[t] || b != expected_b[t]) ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace

// --- Hypersparse kernels vs the dense loops. -------------------------------
//
// ftran, btran and update skip a floating-point operation only where an
// operand is exactly zero, so on every factorization and eta file their
// results must equal the dense loops below entry for entry (== lets the
// sign of a zero differ), ftran's returned support must cover every
// nonzero, and update must append exactly the eta terms a dense scan of w
// keeps, in ascending position order. The reference loops sweep every step
// and every eta term in order, touching zeros too.

struct BasisLuTestAccess {
  using Index = BasisLu::Index;

  static void dense_ftran(const BasisLu& lu, std::vector<double>& x) {
    const std::size_t m = lu.dim();
    for (std::size_t k = 0; k < m; ++k) {
      const double xp = x[lu.pivot_row_[k]];
      if (xp == 0.0) continue;
      for (std::size_t t = lu.l_start_[k]; t < lu.l_start_[k + 1]; ++t) {
        x[static_cast<std::size_t>(lu.l_idx_[t])] -= lu.l_val_[t] * xp;
      }
    }
    std::vector<double> y(m);
    for (std::size_t k = 0; k < m; ++k) y[k] = x[lu.pivot_row_[k]];
    for (std::size_t k = m; k-- > 0;) {
      const double t = y[k] / lu.diag_[k];
      y[k] = t;
      if (t == 0.0) continue;
      for (std::size_t tt = lu.u_start_[k]; tt < lu.u_start_[k + 1]; ++tt) {
        y[static_cast<std::size_t>(lu.u_idx_[tt])] -= lu.u_val_[tt] * t;
      }
    }
    if (lu.pos_of_step_.empty()) {
      x.swap(y);
    } else {
      for (std::size_t k = 0; k < m; ++k) {
        x[static_cast<std::size_t>(lu.pos_of_step_[k])] = y[k];
      }
    }
    for (std::size_t e = 0; e < lu.eta_r_.size(); ++e) {
      const auto r = static_cast<std::size_t>(lu.eta_r_[e]);
      const double t = x[r] / lu.eta_pivot_[e];
      x[r] = t;
      if (t == 0.0) continue;
      for (std::size_t tt = lu.eta_start_[e]; tt < lu.eta_start_[e + 1];
           ++tt) {
        x[static_cast<std::size_t>(lu.eta_idx_[tt])] -= lu.eta_val_[tt] * t;
      }
    }
  }

  static void dense_btran(const BasisLu& lu, std::vector<double>& x) {
    const std::size_t m = lu.dim();
    for (std::size_t e = lu.eta_r_.size(); e-- > 0;) {
      double t = x[static_cast<std::size_t>(lu.eta_r_[e])];
      for (std::size_t tt = lu.eta_start_[e]; tt < lu.eta_start_[e + 1];
           ++tt) {
        t -= lu.eta_val_[tt] * x[static_cast<std::size_t>(lu.eta_idx_[tt])];
      }
      x[static_cast<std::size_t>(lu.eta_r_[e])] = t / lu.eta_pivot_[e];
    }
    std::vector<double> w = x;
    if (!lu.pos_of_step_.empty()) {
      for (std::size_t k = 0; k < m; ++k) {
        w[k] = x[static_cast<std::size_t>(lu.pos_of_step_[k])];
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      const double t = w[k];
      if (t == 0.0) continue;
      const double wk = t / lu.diag_[k];
      w[k] = wk;
      for (std::size_t tt = lu.ur_start_[k]; tt < lu.ur_start_[k + 1]; ++tt) {
        w[static_cast<std::size_t>(lu.ur_idx_[tt])] -= lu.ur_val_[tt] * wk;
      }
    }
    std::vector<double> y(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) y[lu.pivot_row_[k]] = w[k];
    for (std::size_t k = m; k-- > 0;) {
      const std::size_t row = lu.pivot_row_[k];
      const double z = y[row];
      if (z == 0.0) continue;
      for (std::size_t tt = lu.lt_start_[row]; tt < lu.lt_start_[row + 1];
           ++tt) {
        y[static_cast<std::size_t>(lu.lt_idx_[tt])] -= lu.lt_val_[tt] * z;
      }
    }
    x.swap(y);
  }

  /// The newest eta's off-pivot terms as (position, value).
  static std::vector<std::pair<std::size_t, double>> last_eta(
      const BasisLu& lu) {
    std::vector<std::pair<std::size_t, double>> terms;
    const std::size_t e = lu.eta_r_.size() - 1;
    for (std::size_t tt = lu.eta_start_[e]; tt < lu.eta_start_[e + 1]; ++tt) {
      terms.emplace_back(static_cast<std::size_t>(lu.eta_idx_[tt]),
                         lu.eta_val_[tt]);
    }
    return terms;
  }
};

namespace {

bool in_support(const Support& bits, std::size_t k) {
  return k / 64 < bits.size() && ((bits[k / 64] >> (k % 64)) & 1) != 0;
}

/// Random sparse right-hand side: `count` nonzeros (all of them when
/// count >= m), with their rows.
std::vector<double> sparse_rhs(std::mt19937_64& rng, std::size_t m,
                               std::size_t count,
                               std::vector<std::size_t>& rows) {
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  std::vector<double> b(m, 0.0);
  rows.clear();
  for (std::size_t t = 0; t < std::min(count, m); ++t) {
    const std::size_t i = count >= m ? t : rng() % m;
    if (b[i] == 0.0) rows.push_back(i);
    b[i] = val(rng);
  }
  return b;
}

/// Sparse ftran vs the dense loops on one right-hand side; returns the
/// solution and copies ftran's support into `support`.
std::vector<double> check_ftran(const BasisLu& lu, BasisLu::Workspace& ws,
                                const std::vector<double>& b,
                                const std::vector<std::size_t>& rows,
                                Support& support) {
  std::vector<double> x = b, ref = b;
  support = lu.ftran(x, rows, ws);
  BasisLuTestAccess::dense_ftran(lu, ref);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i], ref[i]) << "ftran position " << i;
    if (x[i] != 0.0) {
      EXPECT_TRUE(in_support(support, i)) << "ftran support misses " << i;
    }
  }
  return x;
}

void check_btran(const BasisLu& lu, BasisLu::Workspace& ws,
                 const std::vector<double>& c) {
  std::vector<double> y = c, ref = c;
  lu.btran(y, ws);
  BasisLuTestAccess::dense_btran(lu, ref);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], ref[i]) << "btran row " << i;
  }
}

TEST(BasisLu, HypersparseKernelsMatchDenseLoopsUnderEtasAndAppends) {
  std::size_t pivots = 0, appends = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    for (const bool preorder : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (preorder ? " fill_preorder" : " position order"));
      std::mt19937_64 rng(seed * 104729 + (preorder ? 7 : 0));
      std::uniform_real_distribution<double> val(0.5, 4.0);
      std::size_t m = 8 + (seed * 37) % 190;
      // Slack identity, then structural columns with a diagonal entry plus
      // up to three off-diagonal ones: network-like, nearly triangular.
      CscMatrix A(m);
      for (std::size_t i = 0; i < m; ++i) {
        A.push_entry(i, 1.0);
        A.end_column();
      }
      const auto add_structural = [&](std::size_t diag_row) {
        std::vector<CscMatrix::Entry> col = {
            {diag_row, (rng() % 2 ? 1.0 : -1.0) * val(rng)}};
        for (std::size_t t = rng() % 4; t-- > 0;) {
          const std::size_t i = rng() % m;
          bool dup = false;
          for (const auto& e : col) dup = dup || e.row == i;
          if (!dup) col.push_back({i, (rng() % 2 ? 1.0 : -1.0) * val(rng)});
        }
        return A.add_column(col);
      };
      for (std::size_t i = 0; i < 2 * m; ++i) add_structural(i % m);
      std::vector<std::size_t> basis(m);
      for (std::size_t k = 0; k < m; ++k) {
        basis[k] = rng() % 3 == 0 ? k : m + k;  // slack or structural
      }
      if (seed % 2 == 1) std::shuffle(basis.begin(), basis.end(), rng);
      BasisLu::Options options;
      options.fill_preorder = preorder;
      auto lu = BasisLu::factor(A, basis, options);
      if (!lu) continue;

      BasisLu::Workspace ws;  // shared by every call, as in the engines
      std::vector<std::size_t> rows;
      Support support;
      for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        if (rng() % 8 == 0) {
          // Row generation: a new identity row, plus columns touching it.
          A.add_rows(1);
          A.push_entry(m, 1.0);
          basis.push_back(A.end_column());
          ASSERT_EQ(lu->append_identity_row(), m);
          ++m;
          add_structural(m - 1);
          add_structural(rng() % m);
          ++appends;
        } else {
          // Basis exchange: ftran a nonbasic column, pivot on its largest
          // entry, check the appended eta terms.
          const std::size_t j = rng() % A.num_cols();
          if (std::find(basis.begin(), basis.end(), j) != basis.end()) {
            continue;
          }
          std::vector<double> a(m, 0.0);
          A.scatter_column(j, a, rows);
          const std::vector<double> w = check_ftran(*lu, ws, a, rows, support);
          std::size_t r = 0;
          for (std::size_t i = 1; i < m; ++i) {
            if (std::fabs(w[i]) > std::fabs(w[r])) r = i;
          }
          if (std::fabs(w[r]) < 1e-3) continue;
          std::vector<std::pair<std::size_t, double>> expected;
          for (std::size_t i = 0; i < m; ++i) {
            if (i != r && std::fabs(w[i]) > BasisLu::kDropTolerance) {
              expected.emplace_back(i, w[i]);
            }
          }
          ASSERT_TRUE(lu->update(r, w, support));
          EXPECT_EQ(BasisLuTestAccess::last_eta(*lu), expected);
          basis[r] = j;
          ++pivots;
        }
        // Solves against the current factors + eta file: sparse (the
        // simplex's a_q and e_r) and dense right-hand sides.
        for (const std::size_t count : {std::size_t{1}, std::size_t{3}, m}) {
          const std::vector<double> b = sparse_rhs(rng, m, count, rows);
          check_ftran(*lu, ws, b, rows, support);
          check_btran(*lu, ws, sparse_rhs(rng, m, count, rows));
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GE(pivots, 800u);
  EXPECT_GE(appends, 100u);
}

}  // namespace
}  // namespace ssco::lp
