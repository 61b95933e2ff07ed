#include "lp/exact_basis.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "lp/basis_lu.h"
#include "lp/sparse.h"
#include "num/reconstruct.h"

namespace ssco::lp {

SparseColumns SparseColumns::transposed() const {
  SparseColumns t;
  t.n = n;
  t.cols.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (const auto& [i, v] : cols[j]) {
      t.cols[i].emplace_back(j, v);
    }
  }
  return t;
}

namespace {

/// Floating-point image of the rational matrix, factored by the shared
/// sparse LU of the simplex basis (lp/basis_lu.h) — the float kernel the
/// exact refinement iterates against.
std::optional<BasisLu> factor_double_image(const SparseColumns& m) {
  CscMatrix a(m.n);
  std::size_t nnz = 0;
  for (const auto& col : m.cols) nnz += col.size();
  a.reserve(m.n, nnz);
  for (std::size_t j = 0; j < m.n; ++j) {
    for (const auto& [i, v] : m.cols[j]) {
      a.push_entry(i, v.to_double());
    }
    a.end_column();
  }
  std::vector<std::size_t> columns(m.n);
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  // The preorder only changes the float kernel's rounding, and refinement
  // iterates to the exact rational answer regardless — so take the fill
  // (and speed) win unconditionally here.
  BasisLu::Options options;
  options.fill_preorder = true;
  return BasisLu::factor(a, columns, options);
}

/// Power-of-two magnitude of a rational: ~floor(log2 |x|); 0 for zero.
int log2_magnitude(const Rational& x) {
  if (x.is_zero()) return std::numeric_limits<int>::min();
  return static_cast<int>(x.num().bit_length()) -
         static_cast<int>(x.den().bit_length());
}

Rational pow2(int k) {
  if (k >= 0) {
    return Rational(BigInt::pow(BigInt(2), static_cast<unsigned>(k)));
  }
  return Rational(BigInt(1), BigInt::pow(BigInt(2), static_cast<unsigned>(-k)));
}

}  // namespace

namespace {

/// Shard granularities for the exact element loops: rational big-int work is
/// expensive per item, so shards can be fine; plain element updates need
/// coarser slices before forking pays for itself.
constexpr std::size_t kMinReconstructPerShard = 8;
constexpr std::size_t kMinColumnsPerShard = 32;
constexpr std::size_t kMinElementsPerShard = 128;

/// Refinement iterations before giving up (each gains ~50 bits).
constexpr int kMaxRefinements = 80;
/// Attempt rational reconstruction every this many refinements.
constexpr int kReconstructEvery = 4;

/// Exact iterative refinement of one system against a shared factorization:
/// M x = rhs via FTRAN, or M' x = rhs via BTRAN when `transposed`.
std::optional<std::vector<Rational>> refine_exact(
    const SparseColumns& matrix, const BasisLu& lu, bool transposed,
    const std::vector<Rational>& rhs, const Parallel& par = {}) {
  const std::size_t n = matrix.n;
  auto apply_exact = [&](const std::vector<Rational>& x) {
    return transposed ? matrix.multiply_transposed(x, par)
                      : matrix.multiply(x, par);
  };

  std::vector<Rational> x_acc(n, Rational(0));
  std::vector<Rational> residual = rhs;
  BasisLu::Workspace lu_ws;

  // Bits of accuracy gained so far (estimate; verification is exact anyway).
  int accuracy_bits = 0;

  for (int iteration = 0; iteration < kMaxRefinements; ++iteration) {
    // Scale the residual to O(1) with a power of two so the double solve
    // operates at full precision regardless of how tiny the residual got.
    int scale_log = std::numeric_limits<int>::min();
    for (const Rational& r : residual) {
      if (!r.is_zero()) scale_log = std::max(scale_log, log2_magnitude(r));
    }
    if (scale_log == std::numeric_limits<int>::min()) {
      return x_acc;  // residual is exactly zero
    }
    Rational scale = pow2(scale_log);
    Rational inv_scale = pow2(-scale_log);

    std::vector<double> correction(n);
    par.for_shards(n, kMinElementsPerShard,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       correction[i] = (residual[i] * inv_scale).to_double();
                     }
                   });
    if (transposed) {
      lu.btran(correction, lu_ws);
    } else {
      lu.ftran(correction, lu_ws);
    }

    // x += scale * correction (exact: every double is a dyadic rational);
    // residual = rhs - M x (exact). Both element-independent, so sharding
    // cannot change a single bit.
    par.for_shards(n, kMinElementsPerShard,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       if (correction[i] != 0.0) {
                         x_acc[i] +=
                             scale * num::exact_rational_from_double(correction[i]);
                       }
                     }
                   });
    std::vector<Rational> mx = apply_exact(x_acc);
    residual = rhs;
    par.for_shards(n, kMinElementsPerShard,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       residual[i] -= mx[i];
                     }
                   });
    accuracy_bits += 40;  // conservative per-pass gain

    const bool last = iteration + 1 == kMaxRefinements;
    if ((iteration + 1) % kReconstructEvery == 0 || last) {
      // Reconstruct with denominators up to ~2^(accuracy/2 - margin).
      int den_bits = accuracy_bits / 2 - 8;
      if (den_bits < 4) continue;
      BigInt max_den = BigInt::pow(BigInt(2), static_cast<unsigned>(den_bits));
      std::vector<Rational> candidate(n);
      par.for_shards(n, kMinReconstructPerShard,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         candidate[i] =
                             num::rational_reconstruct(x_acc[i], max_den);
                       }
                     });
      // Unconditional exact verification.
      std::vector<Rational> check = apply_exact(candidate);
      bool ok = true;
      for (std::size_t i = 0; i < n && ok; ++i) {
        ok = check[i] == rhs[i];
      }
      if (ok) return candidate;
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<Rational> SparseColumns::multiply(const std::vector<Rational>& x,
                                              const Parallel& parallel) const {
  // Shard 0 scatters straight into the result; the others into partials
  // merged after it in shard order. At one shard that is the plain serial
  // scatter, with no partial allocated.
  const std::size_t shards = parallel.shard_count(n, kMinColumnsPerShard);
  std::vector<Rational> y(n, Rational(0));
  std::vector<ShardLocal<std::vector<Rational>>> partial(shards - 1);
  parallel.for_shards(
      n, kMinColumnsPerShard,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        std::vector<Rational>& out = shard == 0 ? y : partial[shard - 1].value;
        if (shard != 0) out.assign(n, Rational(0));
        for (std::size_t j = begin; j < end; ++j) {
          if (x[j].is_zero()) continue;
          for (const auto& [i, v] : cols[j]) out[i].add_product(v, x[j]);
        }
      });
  for (const auto& part : partial) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!part.value[i].is_zero()) y[i] += part.value[i];
    }
  }
  return y;
}

std::vector<Rational> SparseColumns::multiply_transposed(
    const std::vector<Rational>& y, const Parallel& parallel) const {
  std::vector<Rational> x(n, Rational(0));
  parallel.for_shards(n, kMinColumnsPerShard,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t j = begin; j < end; ++j) {
                          for (const auto& [i, v] : cols[j]) {
                            x[j].add_product(v, y[i]);
                          }
                        }
                      });
  return x;
}

std::optional<std::vector<Rational>> solve_sparse_exact(
    const SparseColumns& matrix, const std::vector<Rational>& rhs) {
  if (matrix.n != rhs.size()) return std::nullopt;
  if (matrix.n == 0) return std::vector<Rational>{};

  auto lu = factor_double_image(matrix);
  if (!lu) return std::nullopt;
  return refine_exact(matrix, *lu, /*transposed=*/false, rhs);
}

std::optional<ExactBasisSolves> solve_sparse_exact_pair(
    const SparseColumns& matrix, const std::vector<Rational>& rhs,
    const std::vector<Rational>& rhs_transposed, const Parallel& parallel) {
  if (matrix.n != rhs.size() || matrix.n != rhs_transposed.size()) {
    return std::nullopt;
  }
  if (matrix.n == 0) return ExactBasisSolves{};

  auto lu = factor_double_image(matrix);
  if (!lu) return std::nullopt;
  // The two refinements are independent (each brings its own
  // BasisLu::Workspace; the LU is const-shared), so run them concurrently
  // and split the thread budget between their internal shard loops.
  Parallel half = parallel;
  half.threads = std::max<std::size_t>(1, parallel.threads / 2);
  std::optional<std::vector<Rational>> straight;
  std::optional<std::vector<Rational>> transposed;
  parallel.invoke_all({
      [&] {
        straight = refine_exact(matrix, *lu, /*transposed=*/false, rhs, half);
      },
      [&] {
        transposed = refine_exact(matrix, *lu, /*transposed=*/true,
                                  rhs_transposed, half);
      },
  });
  if (!straight || !transposed) return std::nullopt;
  return ExactBasisSolves{std::move(*straight), std::move(*transposed)};
}

}  // namespace ssco::lp
