// Column generation correctness: the restricted-master driver (lp/colgen.h)
// must produce bit-identical certified objectives to full-model solves —
// on the reduce-family LPs through their structural oracle, and on synthetic
// masters through a table-backed oracle that exercises the driver's fallback
// paths (infeasible masters, exact-sweep catches, full materialization).

#include "lp/colgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "core/prefix_lp.h"
#include "core/reduce_lp.h"
#include "lp/exact_solver.h"
#include "obs/metrics.h"
#include "platform/delta.h"
#include "platform/platform.h"
#include "testing/metric.h"
#include "testing/util.h"

namespace ssco::lp {
namespace {

using core::ColGenMode;
using testing::R;

// --- Table oracle: an explicit full model, a seeded subset. ---------------

struct TableColumn {
  std::string name;
  Rational objective;
  std::vector<std::pair<std::size_t, Rational>> entries;
  bool present = false;
};

class TableOracle final : public PricingOracle {
 public:
  explicit TableOracle(std::vector<TableColumn> columns)
      : columns_(std::move(columns)) {}

  /// Builds the master: `rows` created verbatim, then the columns marked
  /// present.
  Model build_master(const std::vector<std::tuple<Sense, Rational, std::string>>& rows) {
    Model model;
    for (const auto& [sense, rhs, name] : rows) {
      model.add_constraint(LinearExpr{}, sense, rhs, name);
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].present) append_to(model, c);
    }
    return model;
  }

  std::size_t total_columns() const override { return columns_.size(); }

  void price(const std::vector<double>& y, double tolerance,
             std::size_t max_columns,
             std::vector<GeneratedColumn>& out) override {
    for (std::size_t c = 0; c < columns_.size() && out.size() < max_columns;
         ++c) {
      if (columns_[c].present) continue;
      double d = -columns_[c].objective.to_double();
      for (const auto& [row, coeff] : columns_[c].entries) {
        d += coeff.to_double() * y[row];
      }
      if (d < -tolerance) out.push_back(generated(c));
    }
  }

  void price_exact(const std::vector<Rational>& y, std::size_t max_columns,
                   std::vector<GeneratedColumn>& out) override {
    for (std::size_t c = 0; c < columns_.size() && out.size() < max_columns;
         ++c) {
      if (columns_[c].present) continue;
      Rational rc = -columns_[c].objective;
      for (const auto& [row, coeff] : columns_[c].entries) {
        rc.add_product(coeff, y[row]);
      }
      if (rc.signum() < 0) out.push_back(generated(c));
    }
  }

  void added(const GeneratedColumn& column, VarId) override {
    columns_[column.tag].present = true;
  }

  void materialize_all(std::vector<GeneratedColumn>& out) override {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (!columns_[c].present) out.push_back(generated(c));
    }
  }

 private:
  GeneratedColumn generated(std::size_t c) const {
    GeneratedColumn gc;
    gc.name = columns_[c].name;
    gc.objective = columns_[c].objective;
    gc.entries = columns_[c].entries;
    gc.tag = c;
    return gc;
  }
  void append_to(Model& model, std::size_t c) {
    std::vector<std::pair<RowId, Rational>> rows;
    for (const auto& [row, coeff] : columns_[c].entries) {
      rows.emplace_back(RowId{row}, coeff);
    }
    model.add_column(columns_[c].name, columns_[c].objective, rows);
    columns_[c].present = true;
  }

  std::vector<TableColumn> columns_;
};

/// The same full model, dense, for the ground-truth solve.
Model dense_model(const std::vector<std::tuple<Sense, Rational, std::string>>& rows,
                  const std::vector<TableColumn>& columns) {
  Model model;
  for (const auto& [sense, rhs, name] : rows) {
    model.add_constraint(LinearExpr{}, sense, rhs, name);
  }
  for (const auto& col : columns) {
    std::vector<std::pair<RowId, Rational>> entries;
    for (const auto& [row, coeff] : col.entries) {
      entries.emplace_back(RowId{row}, coeff);
    }
    model.add_column(col.name, col.objective, entries);
  }
  return model;
}

TEST(ColGen, TableOracleMatchesDense) {
  // max 3a + 2b + 4c + d  s.t.  a+b+c+d <= 4,  a+c <= 1,  b+d <= 2.
  // Seed only {a}; pricing must discover c (and b or d) to reach the dense
  // optimum. Objective is certified and bit-identical to the dense solve.
  std::vector<std::tuple<Sense, Rational, std::string>> rows = {
      {Sense::kLessEqual, R("4"), "cap"},
      {Sense::kLessEqual, R("1"), "ac"},
      {Sense::kLessEqual, R("2"), "bd"},
  };
  std::vector<TableColumn> cols = {
      {"a", R("3"), {{0, R("1")}, {1, R("1")}}, true},
      {"b", R("2"), {{0, R("1")}, {2, R("1")}}, false},
      {"c", R("4"), {{0, R("1")}, {1, R("1")}}, false},
      {"d", R("1"), {{0, R("1")}, {2, R("1")}}, false},
  };
  TableOracle oracle(cols);
  Model master = oracle.build_master(rows);

  ExactSolver solver;
  ColGenOptions cg;
  cg.batch = 1;  // force several rounds
  const obs::Snapshot before = obs::Registry::global().snapshot();
  ExactSolution sol = solver.solve_colgen(master, oracle, cg);
  const obs::Snapshot after = obs::Registry::global().snapshot();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_GE(sol.colgen.rounds, 1u);
  EXPECT_EQ(sol.colgen.columns_total, 4u);

  ExactSolution dense = ExactSolver().solve(dense_model(rows, cols));
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, dense.objective);

  auto delta = [&](std::string_view name) {
    return testing::metric(after, name) - before.value(name);
  };
  EXPECT_EQ(delta("solver_colgen_solves"), 1.0);
  EXPECT_EQ(delta("solver_colgen_rounds"),
            static_cast<double>(sol.colgen.rounds));
}

TEST(ColGen, InfeasibleMasterFeasibleFullModel) {
  // Row "need" forces x == 1 but x is absent from the seed: the restricted
  // master is INFEASIBLE, which proves nothing — the driver must fall back
  // to the full model and find the optimum.
  std::vector<std::tuple<Sense, Rational, std::string>> rows = {
      {Sense::kEqual, R("1"), "need"},
      {Sense::kLessEqual, R("2"), "cap"},
  };
  std::vector<TableColumn> cols = {
      {"y", R("1"), {{1, R("1")}}, true},
      {"x", R("5"), {{0, R("1")}, {1, R("1")}}, false},
  };
  TableOracle oracle(cols);
  Model master = oracle.build_master(rows);

  ExactSolver solver;
  ExactSolution sol = solver.solve_colgen(master, oracle, ColGenOptions{});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  // x == 1 leaves room for y == 1: objective 5 + 1.
  EXPECT_EQ(sol.objective, R("6"));
  EXPECT_TRUE(sol.method.starts_with("colgen-fallback+")) << sol.method;
}

TEST(ColGen, InfeasibleFullModelIsProven) {
  // Both rows can never hold together no matter which columns arrive; the
  // driver's fallback must surface the exact infeasibility verdict.
  std::vector<std::tuple<Sense, Rational, std::string>> rows = {
      {Sense::kEqual, R("1"), "one"},
      {Sense::kEqual, R("2"), "two"},
  };
  std::vector<TableColumn> cols = {
      {"x", R("1"), {{0, R("1")}, {1, R("1")}}, true},
      {"z", R("1"), {{0, R("1")}, {1, R("1")}}, false},
  };
  TableOracle oracle(cols);
  Model master = oracle.build_master(rows);

  ExactSolver solver;
  ExactSolution sol = solver.solve_colgen(master, oracle, ColGenOptions{});
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_FALSE(sol.certified);
}

// --- Row generation: a row-starved master still certifies. ----------------

/// Table oracle that also generates rows: the master is built with ONLY the
/// rows its seed columns touch (first-touch order), and every emitted
/// column's entries use FULL row ids.
class RowGenTableOracle final : public PricingOracle {
 public:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  RowGenTableOracle(std::vector<GeneratedRow> rows,
                    std::vector<TableColumn> columns)
      : specs_(std::move(rows)), columns_(std::move(columns)) {}

  /// Builds the restricted master: only rows touched by the columns marked
  /// present, activated in first-touch order.
  Model build_master() {
    Model model;
    std::vector<std::size_t> full_to_master(specs_.size(), kNoRow);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (!columns_[c].present) continue;
      std::vector<std::pair<RowId, Rational>> rows;
      for (const auto& [row, coeff] : columns_[c].entries) {
        if (full_to_master[row] == kNoRow) {
          const GeneratedRow& s = specs_[row];
          full_to_master[row] =
              model.add_constraint(LinearExpr{}, s.sense, s.rhs, s.name).index;
          origins_.push_back(row);
        }
        rows.emplace_back(RowId{full_to_master[row]}, coeff);
      }
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.first.index < b.first.index;
      });
      model.add_column(columns_[c].name, columns_[c].objective, rows);
    }
    return model;
  }

  std::size_t total_columns() const override { return columns_.size(); }
  std::size_t full_row_count() const override { return specs_.size(); }
  GeneratedRow row_spec(std::size_t full_row) const override {
    return specs_[full_row];
  }
  std::vector<std::size_t> master_row_origins() const override {
    return origins_;
  }

  void price(const std::vector<double>& y, double tolerance,
             std::size_t max_columns,
             std::vector<GeneratedColumn>& out) override {
    for (std::size_t c = 0; c < columns_.size() && out.size() < max_columns;
         ++c) {
      if (columns_[c].present) continue;
      double d = -columns_[c].objective.to_double();
      for (const auto& [row, coeff] : columns_[c].entries) {
        d += coeff.to_double() * y[row];
      }
      if (d < -tolerance) out.push_back(generated(c));
    }
  }

  void price_exact(const std::vector<Rational>& y, std::size_t max_columns,
                   std::vector<GeneratedColumn>& out) override {
    for (std::size_t c = 0; c < columns_.size() && out.size() < max_columns;
         ++c) {
      if (columns_[c].present) continue;
      Rational rc = -columns_[c].objective;
      for (const auto& [row, coeff] : columns_[c].entries) {
        rc.add_product(coeff, y[row]);
      }
      if (rc.signum() < 0) out.push_back(generated(c));
    }
  }

  void added(const GeneratedColumn& column, VarId) override {
    columns_[column.tag].present = true;
  }

  void materialize_all(std::vector<GeneratedColumn>& out) override {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (!columns_[c].present) out.push_back(generated(c));
    }
  }

 private:
  GeneratedColumn generated(std::size_t c) const {
    GeneratedColumn gc;
    gc.name = columns_[c].name;
    gc.objective = columns_[c].objective;
    gc.entries = columns_[c].entries;
    gc.tag = c;
    return gc;
  }

  std::vector<GeneratedRow> specs_;
  std::vector<TableColumn> columns_;
  std::vector<std::size_t> origins_;
};

std::vector<GeneratedRow> rowgen_rows() {
  // r3 is touched by NO column and must stay inactive for the whole solve;
  // r4 is touched only by a generated column and must activate mid-loop.
  return {{"cap", Sense::kLessEqual, R("4")},
          {"ac", Sense::kLessEqual, R("1")},
          {"bd", Sense::kLessEqual, R("2")},
          {"idle", Sense::kLessEqual, R("3")},
          {"ce", Sense::kLessEqual, R("1")}};
}

std::vector<TableColumn> rowgen_columns() {
  return {
      {"a", R("3"), {{0, R("1")}, {1, R("1")}}, true},
      {"b", R("2"), {{0, R("1")}, {2, R("1")}}, false},
      {"c", R("4"), {{0, R("1")}, {1, R("1")}, {4, R("1")}}, false},
      {"d", R("1"), {{0, R("1")}, {2, R("1")}}, false},
      {"e", R("5"), {{0, R("1")}, {4, R("1")}}, false},
  };
}

/// Dense ground truth: every row, every column.
Model rowgen_dense_model() {
  Model model;
  for (const GeneratedRow& r : rowgen_rows()) {
    model.add_constraint(LinearExpr{}, r.sense, r.rhs, r.name);
  }
  for (const TableColumn& col : rowgen_columns()) {
    std::vector<std::pair<RowId, Rational>> entries;
    for (const auto& [row, coeff] : col.entries) {
      entries.emplace_back(RowId{row}, coeff);
    }
    model.add_column(col.name, col.objective, entries);
  }
  return model;
}

TEST(ColGen, RowStarvedMasterCertifiesAgainstDense) {
  RowGenTableOracle oracle(rowgen_rows(), rowgen_columns());
  Model master = oracle.build_master();
  // Seed column "a" touches rows 0 and 1 only: 2 of 5 rows active.
  EXPECT_EQ(master.num_rows(), 2u);

  ExactSolver solver;
  ColGenOptions cg;
  cg.batch = 1;  // force several rounds so activation happens mid-loop
  ExactSolution sol = solver.solve_colgen(master, oracle, cg);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);

  ExactSolution dense = ExactSolver().solve(rowgen_dense_model());
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, dense.objective);

  // The "idle" row was never touched by any column; the certificate must
  // have been extended over it without ever activating it.
  EXPECT_EQ(sol.colgen.rows_total, 5u);
  EXPECT_LT(sol.colgen.rows_active, sol.colgen.rows_total);
  EXPECT_GE(sol.colgen.rows_active, 2u);
  // Duals come back lifted to the FULL row space, zero at inactive rows.
  ASSERT_EQ(sol.dual.size(), 5u);
}

TEST(ColGen, RowGenActivationGateFallsBackOnInfeasibleZeroRow) {
  // Row "need" (== 1) is NOT zero-feasible: the driver cannot activate it
  // lazily nor leave it inactive, so it must fall back to the dense path —
  // and still land on the full-model optimum.
  std::vector<GeneratedRow> rows = {{"cap", Sense::kLessEqual, R("2")},
                                    {"need", Sense::kEqual, R("1")}};
  std::vector<TableColumn> cols = {
      {"y", R("1"), {{0, R("1")}}, true},
      {"x", R("5"), {{0, R("1")}, {1, R("1")}}, false},
  };
  RowGenTableOracle oracle(rows, cols);
  Model master = oracle.build_master();
  EXPECT_EQ(master.num_rows(), 1u);

  ExactSolver solver;
  ExactSolution sol = solver.solve_colgen(master, oracle, ColGenOptions{});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  // x == 1 fills "need"; y == 1 uses the slack capacity: objective 6.
  EXPECT_EQ(sol.objective, R("6"));
}

TEST(ColGen, StabilizationPreservesCertifiedObjective) {
  // Wentges smoothing must never change WHAT is found, only how fast the
  // duals settle: certified objectives are bit-identical with and without.
  for (double alpha : {0.0, 0.5, 0.8}) {
    RowGenTableOracle oracle(rowgen_rows(), rowgen_columns());
    Model master = oracle.build_master();
    ExactSolver solver;
    ColGenOptions cg;
    cg.batch = 1;
    cg.stabilization = alpha;
    ExactSolution sol = solver.solve_colgen(master, oracle, cg);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "alpha " << alpha;
    EXPECT_TRUE(sol.certified) << "alpha " << alpha;
    EXPECT_EQ(sol.objective, ExactSolver().solve(rowgen_dense_model()).objective)
        << "alpha " << alpha;
    if (alpha == 0.0) EXPECT_EQ(sol.colgen.stab_rounds, 0u);
  }
}

// --- Reduce-family sweeps: colgen == dense, bit for bit. ------------------

core::ReduceLpOptions reduce_options(ColGenMode mode) {
  core::ReduceLpOptions options;
  options.colgen = mode;
  return options;
}

TEST(ColGen, ReduceSweepMatchesDenseBitExact) {
  for (std::uint64_t seed : {7u, 11u, 23u}) {
    for (std::size_t participants : {3u, 4u, 5u}) {
      auto inst =
          testing::random_reduce_instance(seed, participants + 3, participants);
      core::ReduceSolution dense =
          core::solve_reduce(inst, reduce_options(ColGenMode::kNever));
      core::ReduceSolution colgen =
          core::solve_reduce(inst, reduce_options(ColGenMode::kAlways));
      ASSERT_TRUE(dense.certified);
      ASSERT_TRUE(colgen.certified);
      EXPECT_EQ(colgen.throughput, dense.throughput)
          << "seed " << seed << " participants " << participants;
      EXPECT_EQ(colgen.validate(inst), "");
      EXPECT_GT(colgen.lp_columns_total, 0u);
      EXPECT_LE(colgen.lp_columns_generated, colgen.lp_columns_total);
    }
  }
}

TEST(ColGen, ReduceDegenerateStarMatchesDense) {
  // Uniform star: every leaf interchangeable — a heavily degenerate optimum
  // (the regime where float duals lie and the exact sweep must arbitrate).
  graph::Digraph g = graph::star(7);
  std::vector<Rational> costs(g.num_edges(), R("1"));
  std::vector<Rational> speeds(7, R("1"));
  platform::ReduceInstance inst;
  inst.platform =
      platform::Platform(std::move(g), std::move(costs), std::move(speeds));
  for (graph::NodeId i = 1; i <= 6; ++i) inst.participants.push_back(i);
  inst.target = 0;
  core::ReduceSolution dense =
      core::solve_reduce(inst, reduce_options(ColGenMode::kNever));
  core::ReduceSolution colgen =
      core::solve_reduce(inst, reduce_options(ColGenMode::kAlways));
  ASSERT_TRUE(dense.certified);
  ASSERT_TRUE(colgen.certified);
  EXPECT_EQ(colgen.throughput, dense.throughput);
  EXPECT_EQ(colgen.validate(inst), "");
}

TEST(ColGen, ReduceWarmResolveFromColgenBasis) {
  auto inst = testing::random_reduce_instance(5, 8, 4);
  core::ReduceLpOptions options = reduce_options(ColGenMode::kAlways);
  core::ReduceSolution first = core::solve_reduce(inst, options);
  ASSERT_TRUE(first.certified);
  // Re-solve the same instance from the captured colgen basis: must stay
  // certified, bit-identical, and actually use the warm path.
  core::ReduceSolution second = core::solve_reduce(inst, options, &first);
  ASSERT_TRUE(second.certified);
  EXPECT_EQ(second.throughput, first.throughput);
  EXPECT_TRUE(second.warm_started);

  // And the colgen basis must also map onto a DENSE rebuild (names are the
  // contract, not the build path).
  core::ReduceSolution dense =
      core::solve_reduce(inst, reduce_options(ColGenMode::kNever), &first);
  ASSERT_TRUE(dense.certified);
  EXPECT_EQ(dense.throughput, first.throughput);
}

TEST(ColGen, ReduceWarmResolveSurvivesEdgeRemoval) {
  // An edge removal shrinks the edge-id space, so the previous solution's
  // tables are id-keyed against a LARGER platform than the re-solve sees;
  // stale ids must degrade the warm seed, never throw or corrupt. Diamond
  // with two c-routes so dropping one keeps every participant connected.
  platform::PlatformBuilder b;
  auto t = b.add_node("t", R("2"));
  auto a = b.add_node("a", R("1"));
  auto bb = b.add_node("b", R("1"));
  auto c = b.add_node("c", R("1"));
  b.add_link(t, a, R("1"));
  b.add_link(t, bb, R("1"));
  b.add_link(a, bb, R("1/2"));
  b.add_link(a, c, R("1"));
  b.add_link(bb, c, R("1/2"));
  platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {a, bb, c};
  inst.target = t;

  core::ReduceLpOptions options = reduce_options(ColGenMode::kAlways);
  core::ReduceSolution first = core::solve_reduce(inst, options);
  ASSERT_TRUE(first.certified);

  platform::PlatformDelta delta;
  delta.edge_removes = {inst.platform.graph().find_edge(c, a),
                        inst.platform.graph().find_edge(a, c)};
  auto mutated = platform::apply_delta(inst.platform, delta);
  platform::ReduceInstance changed = inst;
  changed.platform = std::move(mutated.platform);

  core::ReduceSolution warm = core::solve_reduce(changed, options, &first);
  ASSERT_TRUE(warm.certified);
  core::ReduceSolution cold =
      core::solve_reduce(changed, reduce_options(ColGenMode::kNever));
  ASSERT_TRUE(cold.certified);
  EXPECT_EQ(warm.throughput, cold.throughput);
}

TEST(ColGen, PrefixSweepMatchesDenseBitExact) {
  for (std::uint64_t seed : {3u, 9u}) {
    auto inst = testing::random_reduce_instance(seed, 7, 4);
    core::PrefixLpOptions dense_options;
    dense_options.colgen = ColGenMode::kNever;
    core::PrefixLpOptions colgen_options;
    colgen_options.colgen = ColGenMode::kAlways;
    core::ReduceSolution dense = core::solve_prefix(inst, dense_options);
    core::ReduceSolution colgen = core::solve_prefix(inst, colgen_options);
    ASSERT_TRUE(dense.certified);
    ASSERT_TRUE(colgen.certified);
    EXPECT_EQ(colgen.throughput, dense.throughput) << "seed " << seed;
    EXPECT_EQ(core::validate_prefix(inst, colgen), "");
  }
}

}  // namespace
}  // namespace ssco::lp
