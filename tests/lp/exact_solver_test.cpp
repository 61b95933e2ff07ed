#include "lp/exact_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "testing/metric.h"

namespace ssco::lp {
namespace {

using num::Rational;

Model classic() {
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(2)),
                   Sense::kLessEqual, Rational(4));
  m.add_constraint(LinearExpr().add(x, Rational(3)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(6));
  return m;
}

TEST(ExactSolver, CertifiesViaDoublePath) {
  auto sol = ExactSolver().solve(classic());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.method, "double+certificate");
  EXPECT_EQ(sol.objective, Rational(14, 5));
  EXPECT_EQ(sol.primal[0], Rational(8, 5));
  EXPECT_GT(sol.float_iterations, 0u);
  EXPECT_EQ(sol.exact_iterations, 0u);
}

TEST(ExactSolver, BasisVerificationRescuesFailedReconstruction) {
  // max x + y s.t. p x + y <= 1, x + p y <= 1 at p = 67108879: the optimum
  // x = y = 1/(p + 1) has a denominator past the largest reconstruction cap
  // (2^26), so rounding fails — but the exact basic solution recovered from
  // the optimal basis certifies without touching the exact simplex.
  const Rational p(67108879);
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, p).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, p),
                   Sense::kLessEqual, Rational(1));
  auto sol = ExactSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.method, "double+basis-verification");
  EXPECT_EQ(sol.objective, Rational(1, 33554440));
  EXPECT_EQ(sol.primal[0], Rational(1, 67108880));
  EXPECT_EQ(sol.exact_iterations, 0u);
}

TEST(ExactSolver, FallsBackWhenReconstructionImpossible) {
  // max a + b s.t. a + (1 - 10^-12) b <= 1, a <= 1: at a = 1, b's reduced
  // cost is 10^-12, under the float engine's tolerance, so the float pass
  // stops at the wrong vertex. Both certificate rungs then fail exactly,
  // and the exact simplex must take over and prove 10^12 / (10^12 - 1).
  const num::BigInt tera = num::BigInt::pow(num::BigInt(10), 12);
  Model m;
  VarId a = m.add_variable("a");
  VarId b = m.add_variable("b");
  m.set_objective(a, Rational(1));
  m.set_objective(b, Rational(1));
  m.add_constraint(LinearExpr()
                       .add(a, Rational(1))
                       .add(b, Rational(1) - Rational(num::BigInt(1), tera)),
                   Sense::kLessEqual, Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  auto sol = ExactSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.method, "double+exact-simplex");
  EXPECT_EQ(sol.objective, Rational(tera, tera - num::BigInt(1)));
  EXPECT_GT(sol.exact_iterations, 0u);
}

TEST(ExactSolver, InfeasibleProvenByExactPath) {
  // x <= 1 (bound row) conflicts with x >= 2: the exact presolve proves
  // this directly (conflicting proportional singleton rows); with presolve
  // off, the rational simplex must be the prover — never a float verdict.
  Model m;
  VarId x = m.add_variable("x", Rational(0), Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kGreaterEqual,
                   Rational(2));
  auto sol = ExactSolver().solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_EQ(sol.method, "presolve");

  ExactSolverOptions no_presolve;
  no_presolve.presolve = false;
  auto exact = ExactSolver(no_presolve).solve(m);
  EXPECT_EQ(exact.status, SolveStatus::kInfeasible);
  EXPECT_EQ(exact.method, "exact-simplex");
}

TEST(ExactSolver, UnboundedDetected) {
  Model m;
  VarId x = m.add_variable("x");
  m.set_objective(x, Rational(1));
  auto sol = ExactSolver().solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(ExactSolver, ExactFallbackCountedWithoutPivots) {
  // solver_exact_fallbacks counts solves the rational tableau proved, not
  // its pivots: the tableau proves `max x` unbounded with no pivot at all.
  Model unbounded;
  VarId x = unbounded.add_variable("x");
  unbounded.set_objective(x, Rational(1));
  Model infeasible;
  VarId z = infeasible.add_variable("z", Rational(0), Rational(1));
  infeasible.add_constraint(LinearExpr().add(z, Rational(1)),
                            Sense::kGreaterEqual, Rational(2));
  ExactSolverOptions no_presolve;
  no_presolve.presolve = false;
  const obs::Snapshot before = obs::Registry::global().snapshot();
  auto u = ExactSolver().solve(unbounded);
  auto i = ExactSolver(no_presolve).solve(infeasible);
  const obs::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(u.status, SolveStatus::kUnbounded);
  EXPECT_EQ(u.method, "exact-simplex");
  EXPECT_EQ(u.exact_iterations, 0u);
  EXPECT_EQ(i.status, SolveStatus::kInfeasible);
  EXPECT_EQ(i.method, "exact-simplex");
  EXPECT_GT(i.exact_iterations, 0u);
  EXPECT_EQ(testing::metric(after, "solver_exact_fallbacks") -
                before.value("solver_exact_fallbacks"),
            2.0);
}

TEST(ExactSolver, ObjectiveConstantFromShiftedLowerBounds) {
  // max x + y, x in [2, 3], y in [1, 4], x + y <= 6 -> 6 (e.g. x=2..3).
  Model m;
  VarId x = m.add_variable("x", Rational(2), Rational(3));
  VarId y = m.add_variable("y", Rational(1), Rational(4));
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(6));
  auto sol = ExactSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, Rational(6));
  EXPECT_GE(sol.primal[0], Rational(2));
  EXPECT_LE(sol.primal[0], Rational(3));
}

TEST(ExactSolver, CertificateRejectsWrongPrimal) {
  Model m = classic();
  ExpandedModel em = ExpandedModel::from(m);
  // Correct duals for the optimum: y = (2/5, 1/5).
  std::vector<Rational> y{Rational(2, 5), Rational(1, 5)};
  std::vector<Rational> x_good{Rational(8, 5), Rational(6, 5)};
  std::vector<Rational> x_bad{Rational(1), Rational(1)};  // feasible, not opt
  EXPECT_TRUE(ExactSolver::verify_certificate(em, x_good, y));
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x_bad, y));
}

TEST(ExactSolver, CertificateRejectsInfeasiblePoint) {
  Model m = classic();
  ExpandedModel em = ExpandedModel::from(m);
  std::vector<Rational> y{Rational(2, 5), Rational(1, 5)};
  std::vector<Rational> x_infeasible{Rational(10), Rational(10)};
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x_infeasible, y));
  std::vector<Rational> x_negative{Rational(-1), Rational(0)};
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x_negative, y));
}

TEST(ExactSolver, CertificateRejectsDualSignViolation) {
  Model m = classic();
  ExpandedModel em = ExpandedModel::from(m);
  std::vector<Rational> x{Rational(8, 5), Rational(6, 5)};
  std::vector<Rational> y_bad{Rational(-2, 5), Rational(1, 5)};
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x, y_bad));
}

TEST(ExactSolver, PureExactEntrypoint) {
  auto sol = solve_exact_simplex(classic());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.objective, Rational(14, 5));
  EXPECT_EQ(sol.method, "exact-simplex");
}

TEST(ExactSolver, DegenerateVertexStillCertifies) {
  // Three constraints meeting at one optimal point (degenerate vertex).
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  m.add_constraint(LinearExpr().add(y, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(2));
  auto sol = ExactSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.objective, Rational(2));
}

TEST(ExactSolver, RegistryCountsEveryConcurrentSolve) {
  // The documented contract: one solver, many concurrent solve() calls,
  // each with its own SolveContext; the registry must not lose a solve.
  const ExactSolver solver;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSolvesPerThread = 16;
  const obs::Snapshot before = obs::Registry::global().snapshot();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<std::size_t> optimal{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SolveContext context;
      for (std::size_t i = 0; i < kSolvesPerThread; ++i) {
        auto sol = solver.solve(classic(), &context);
        if (sol.status == SolveStatus::kOptimal && sol.certified &&
            sol.objective == Rational(14, 5)) {
          optimal.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(optimal.load(), kThreads * kSolvesPerThread);
  const obs::Snapshot after = obs::Registry::global().snapshot();
  auto delta = [&](std::string_view name) {
    return testing::metric(after, name) - before.value(name);
  };
  EXPECT_EQ(delta("solver_solves"), kThreads * kSolvesPerThread);
  // Every solve after a thread's first replays that thread's context basis.
  EXPECT_EQ(delta("solver_warm_attempts"), kThreads * (kSolvesPerThread - 1));
  EXPECT_EQ(delta("solver_warm_solves"), kThreads * (kSolvesPerThread - 1));
  EXPECT_GT(delta("solver_float_pivots"), 0.0);
  EXPECT_EQ(delta("solver_exact_fallbacks"), 0.0);
}

TEST(ExactSolver, OneSolveRegistersEverySolverCounter) {
  (void)ExactSolver().solve(classic());
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  // Every solver_* name format_solver_stats renders, present after any
  // solve, including the ones this solve left at zero.
  for (const char* name :
       {"solver_solves", "solver_float_pivots", "solver_exact_pivots",
        "solver_warm_attempts", "solver_warm_solves", "solver_exact_fallbacks",
        "solver_presolve_rows_removed", "solver_presolve_cols_removed",
        "solver_colgen_solves", "solver_colgen_rounds",
        "solver_colgen_columns_generated", "solver_ftran_ns",
        "solver_btran_ns", "solver_pricing_ns", "solver_factor_ns",
        "solver_certify_ns", "solver_pricing_sweep_ns"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace ssco::lp
