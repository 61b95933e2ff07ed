#include "lp/sparse.h"

#include <gtest/gtest.h>

namespace ssco::lp {
namespace {

TEST(CscMatrix, EmptyMatrix) {
  CscMatrix m(3);
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 0u);
  EXPECT_EQ(m.num_nonzeros(), 0u);
}

TEST(CscMatrix, AddColumnAndSpans) {
  CscMatrix m(4);
  EXPECT_EQ(m.add_column({{0, 1.0}, {2, -3.0}}), 0u);
  EXPECT_EQ(m.add_column({}), 1u);
  EXPECT_EQ(m.add_column({{3, 2.5}}), 2u);
  EXPECT_EQ(m.num_cols(), 3u);
  EXPECT_EQ(m.num_nonzeros(), 3u);
  EXPECT_EQ(m.col_size(0), 2u);
  EXPECT_EQ(m.col_size(1), 0u);
  EXPECT_EQ(m.col_size(2), 1u);
  EXPECT_EQ(m.col_begin(2)->row, 3u);
  EXPECT_DOUBLE_EQ(m.col_begin(2)->value, 2.5);
}

TEST(CscMatrix, IncrementalColumnBuild) {
  CscMatrix m(3);
  m.push_entry(1, 4.0);
  m.push_entry(2, -1.0);
  EXPECT_EQ(m.end_column(), 0u);
  EXPECT_EQ(m.end_column(), 1u);  // empty column
  EXPECT_EQ(m.col_size(0), 2u);
  EXPECT_EQ(m.col_size(1), 0u);
}

TEST(CscMatrix, DotColumn) {
  CscMatrix m(3);
  m.add_column({{0, 2.0}, {2, 3.0}});
  std::vector<double> x = {1.0, 10.0, -1.0};
  EXPECT_DOUBLE_EQ(m.dot_column(0, x), 2.0 - 3.0);
}

TEST(CscMatrix, ScatterColumn) {
  CscMatrix m(3);
  m.add_column({{1, 7.0}});
  std::vector<double> x(3, 0.0);
  std::vector<std::size_t> rows = {2};
  m.scatter_column(0, x, rows);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 7.0);
  EXPECT_DOUBLE_EQ(x[2], 0.0);
  EXPECT_EQ(rows, std::vector<std::size_t>{1});
}

}  // namespace
}  // namespace ssco::lp
