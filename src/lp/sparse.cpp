#include "lp/sparse.h"

namespace ssco::lp {

std::size_t CscMatrix::add_column(const std::vector<Entry>& entries) {
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  col_start_.push_back(entries_.size());
  return num_cols() - 1;
}

double CscMatrix::dot_column(std::size_t j, const std::vector<double>& x) const {
  double acc = 0.0;
  for (const Entry* e = col_begin(j); e != col_end(j); ++e) {
    acc += e->value * x[e->row];
  }
  return acc;
}

void CscMatrix::scatter_column(std::size_t j, std::vector<double>& x,
                               std::vector<std::size_t>& rows) const {
  rows.clear();
  for (const Entry* e = col_begin(j); e != col_end(j); ++e) {
    x[e->row] = e->value;
    rows.push_back(e->row);
  }
}

void CscMatrix::add_scaled_column(std::size_t j, double scale,
                                  std::vector<double>& x) const {
  for (const Entry* e = col_begin(j); e != col_end(j); ++e) {
    x[e->row] += scale * e->value;
  }
}

}  // namespace ssco::lp
