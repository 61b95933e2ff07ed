#include "lp/scaling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "lp/exact_solver.h"
#include "obs/metrics.h"
#include "testing/metric.h"

namespace ssco::lp {
namespace {

using num::Rational;

/// Badly conditioned model in the style of a heterogeneous platform: one
/// row mixes 1/1000-cost LAN links with unit WAN links, magnified by a
/// large message size.
Model heterogeneous_model() {
  Model m;
  VarId lan = m.add_variable("lan");
  VarId wan = m.add_variable("wan");
  VarId tp = m.add_variable("TP");
  m.set_objective(tp, Rational(1));
  m.add_constraint(LinearExpr()
                       .add(lan, Rational(1, 1000))
                       .add(wan, Rational(2000)),
                   Sense::kLessEqual, Rational(1), "oneport");
  m.add_constraint(LinearExpr()
                       .add(lan, Rational(1))
                       .add(wan, Rational(1))
                       .add(tp, Rational(-4096)),
                   Sense::kEqual, Rational(0), "throughput");
  m.add_constraint(LinearExpr().add(lan, Rational(1)),
                   Sense::kLessEqual, Rational(800000), "cap_lan");
  return m;
}

TEST(Equilibration, FactorsArePowersOfTwo) {
  ExpandedModel em = ExpandedModel::from(heterogeneous_model());
  Equilibration eq = Equilibration::geometric_mean(em);
  EXPECT_FALSE(eq.identity);
  for (double r : eq.row_scale) {
    ASSERT_GT(r, 0.0);
    int exp = 0;
    EXPECT_EQ(std::frexp(r, &exp), 0.5) << r;  // exact power of two
  }
  for (double c : eq.col_scale) {
    ASSERT_GT(c, 0.0);
    int exp = 0;
    EXPECT_EQ(std::frexp(c, &exp), 0.5) << c;
  }
}

TEST(Equilibration, TightensCoefficientRange) {
  ExpandedModel em = ExpandedModel::from(heterogeneous_model());
  Equilibration eq = Equilibration::geometric_mean(em);
  double lo = 1e300;
  double hi = 0.0;
  double lo_scaled = 1e300;
  double hi_scaled = 0.0;
  for (std::size_t i = 0; i < em.rows.size(); ++i) {
    for (const auto& [idx, coeff] : em.rows[i].coeffs) {
      const double a = std::fabs(coeff.to_double());
      lo = std::min(lo, a);
      hi = std::max(hi, a);
      const double s = a * eq.row_scale[i] * eq.col_scale[idx];
      lo_scaled = std::min(lo_scaled, s);
      hi_scaled = std::max(hi_scaled, s);
    }
  }
  EXPECT_LT(hi_scaled / lo_scaled, hi / lo / 100.0)
      << "scaled spread " << hi_scaled / lo_scaled << " vs raw " << hi / lo;
}

TEST(Equilibration, IdentityOnWellScaledModel) {
  Model m;
  VarId x = m.add_variable("x");
  m.set_objective(x, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  ExpandedModel em = ExpandedModel::from(m);
  EXPECT_TRUE(Equilibration::geometric_mean(em).identity);
}

TEST(Scaling, CertifiedObjectiveMatchesExactSimplex) {
  // Equilibration must not change WHAT is proven, only how fast the float
  // engine gets there: the certified result on a badly scaled model equals
  // the exact rational simplex's, which never scales.
  const Model m = heterogeneous_model();
  auto certified = ExactSolver().solve(m);
  auto exact = solve_exact_simplex(m);
  ASSERT_EQ(certified.status, SolveStatus::kOptimal);
  ASSERT_EQ(exact.status, SolveStatus::kOptimal);
  EXPECT_TRUE(certified.certified);
  EXPECT_EQ(certified.objective, exact.objective);
}

TEST(Scaling, DoubleEngineMatchesExactOnBadScaling) {
  const Model m = heterogeneous_model();
  ExpandedModel em = ExpandedModel::from(m);
  auto fp = solve_simplex<double>(em);
  auto ex = solve_simplex<Rational>(em);
  ASSERT_EQ(fp.status, SolveStatus::kOptimal);
  ASSERT_EQ(ex.status, SolveStatus::kOptimal);
  EXPECT_NEAR(fp.objective, ex.objective.to_double(),
              1e-9 * std::fabs(ex.objective.to_double()));
}

TEST(SolverStats, PhaseTimeBreakdownAccumulates) {
  // The FTRAN/BTRAN/pricing counters must be wired through to the
  // process-wide solver_* registry counters after a solve of nontrivial
  // size.
  Model m;
  std::vector<VarId> vars;
  for (int j = 0; j < 40; ++j) {
    vars.push_back(m.add_variable("x" + std::to_string(j)));
    m.set_objective(vars.back(), Rational(1 + j % 3));
  }
  for (int i = 0; i < 30; ++i) {
    LinearExpr expr;
    for (int j = 0; j < 40; ++j) {
      if ((i + j) % 3 == 0) expr.add(vars[j], Rational(1 + (i * j) % 5));
    }
    m.add_constraint(expr, Sense::kLessEqual, Rational(50));
  }
  const obs::Snapshot before = obs::Registry::global().snapshot();
  auto sol = ExactSolver().solve(m);
  const obs::Snapshot after = obs::Registry::global().snapshot();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_GT(sol.float_iterations, 0u);
  auto delta = [&](std::string_view name) {
    return testing::metric(after, name) - before.value(name);
  };
  EXPECT_EQ(delta("solver_solves"), 1.0);
  // Pricing always runs; a pivot implies at least one FTRAN.
  EXPECT_GT(delta("solver_pricing_ns"), 0.0);
  EXPECT_GT(delta("solver_ftran_ns"), 0.0);
  EXPECT_GT(delta("solver_btran_ns"), 0.0);
  EXPECT_EQ(delta("solver_ftran_ns"),
            static_cast<double>(sol.phase_times.ftran_ns));
  EXPECT_EQ(delta("solver_pricing_ns"),
            static_cast<double>(sol.phase_times.pricing_ns));
}

}  // namespace
}  // namespace ssco::lp
