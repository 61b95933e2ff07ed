#pragma once
// Compressed-sparse-column (CSC) matrix over doubles.
//
// Storage backbone of the revised simplex (lp/revised_simplex.h) and of the
// LU-factorized basis (lp/basis_lu.h): the constraint matrix is built
// column by column and read through per-column entry spans (sparse dot
// products against dense vectors, dense scatters of single columns).
// Because the storage is strictly column-major, add_column also serves the
// column-generation path mid-solve: appending a column leaves every
// existing column's data and index untouched (entry spans are fetched per
// use and must not be held across an append — the backing vector may
// reallocate), and a BasisLu factored from a subset of columns owns its
// factors, so it survives appends unchanged. Row-major mirrors — the
// engine's CSR copy — cannot be appended in place and are rebuilt instead.
// Rows within a column are unordered; duplicate rows are not allowed;
// exact zeros may be stored and are treated like any other entry.

#include <cstddef>
#include <vector>

namespace ssco::lp {

class CscMatrix {
 public:
  struct Entry {
    std::size_t row = 0;
    double value = 0.0;
  };

  CscMatrix() = default;
  explicit CscMatrix(std::size_t num_rows) : num_rows_(num_rows) {}

  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::size_t num_cols() const { return col_start_.size() - 1; }
  [[nodiscard]] std::size_t num_nonzeros() const { return entries_.size(); }

  void reserve(std::size_t cols, std::size_t nonzeros) {
    col_start_.reserve(cols + 1);
    entries_.reserve(nonzeros);
  }

  /// Appends one column built from (row, value) pairs; returns its index.
  std::size_t add_column(const std::vector<Entry>& entries);

  /// Grows the row space (row generation): new rows have no entries in any
  /// existing column, so every stored column — and any BasisLu factored
  /// from a selection of them — stays valid as-is.
  void add_rows(std::size_t count) { num_rows_ += count; }

  /// Incremental variant: push entries of the current column, then seal it.
  void push_entry(std::size_t row, double value) {
    entries_.push_back({row, value});
  }
  std::size_t end_column() {
    col_start_.push_back(entries_.size());
    return num_cols() - 1;
  }

  [[nodiscard]] const Entry* col_begin(std::size_t j) const {
    return entries_.data() + col_start_[j];
  }
  [[nodiscard]] const Entry* col_end(std::size_t j) const {
    return entries_.data() + col_start_[j + 1];
  }
  [[nodiscard]] std::size_t col_size(std::size_t j) const {
    return col_start_[j + 1] - col_start_[j];
  }

  /// Sparse dot product of column j with a dense vector.
  [[nodiscard]] double dot_column(std::size_t j,
                                  const std::vector<double>& x) const;

  /// Writes column j into a dense vector, which must be zeroed beforehand,
  /// and replaces `rows` with the column's rows: the nonzero pattern a
  /// sparse FTRAN (BasisLu::ftran) takes with it.
  void scatter_column(std::size_t j, std::vector<double>& x,
                      std::vector<std::size_t>& rows) const;

  /// x += scale * column j (dense accumulate).
  void add_scaled_column(std::size_t j, double scale,
                         std::vector<double>& x) const;

 private:
  std::size_t num_rows_ = 0;
  std::vector<std::size_t> col_start_{0};
  std::vector<Entry> entries_;
};

}  // namespace ssco::lp
