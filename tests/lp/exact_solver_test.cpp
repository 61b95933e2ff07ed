#include "lp/exact_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/rng.h"
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

/// Solves `m` and asserts it certifies `objective`; returns the solution.
ExactSolution expect_certified(const Model& m, const Rational& objective) {
  auto sol = ExactSolver().solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.objective, objective);
  return sol;
}

/// Solves `m` and asserts the rational simplex proved it infeasible —
/// never a float verdict.
void expect_proved_infeasible(const Model& m) {
  auto sol = ExactSolver().solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_EQ(sol.method, "exact-simplex");
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
  // x <= 1 (bound row) conflicts with x >= 2.
  Model m;
  VarId x = m.add_variable("x", Rational(0), Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kGreaterEqual,
                   Rational(2));
  expect_proved_infeasible(m);
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
  const obs::Snapshot before = obs::Registry::global().snapshot();
  auto u = ExactSolver().solve(unbounded);
  auto i = ExactSolver().solve(infeasible);
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

// Models whose rows a presolve would reduce: a singleton equality that
// fixes a variable, a forcing row, proportional duplicates, a conflict
// that one substitution exposes. The solver keeps every row — the float
// pass, the certificate and the exact rung run on the model as written —
// and each test checks the exact answer that must come out.

TEST(Presolve, IdentityOnIrreducibleModel) {
  // The classic 2x2 has no redundant row. The solution is indexed by the
  // model's own columns and rows, and the pair verifies on the expanded
  // model directly: x = 8/5, y = 6/5; the duals solve y1 + 3 y2 = 1 and
  // 2 y1 + y2 = 1.
  const Model m = classic();
  auto sol = expect_certified(m, Rational(14, 5));
  EXPECT_EQ(sol.primal,
            (std::vector<Rational>{Rational(8, 5), Rational(6, 5)}));
  EXPECT_EQ(sol.dual, (std::vector<Rational>{Rational(2, 5), Rational(1, 5)}));
  EXPECT_TRUE(ExactSolver::verify_certificate(ExpandedModel::from(m),
                                              sol.primal, sol.dual));
}

TEST(Presolve, SingletonEqualityFixesVariableAndReconstructsDual) {
  // max 3a + b s.t. 2a == 4, a + b <= 5: a = 2, b = 3. The cap row prices
  // b (y2 = 1) and the equality absorbs the rest of a's objective:
  // 2 y1 + y2 = 3, so y1 = 1.
  Model m;
  VarId a = m.add_variable("a");
  VarId b = m.add_variable("b");
  m.set_objective(a, Rational(3));
  m.set_objective(b, Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(2)), Sense::kEqual,
                   Rational(4), "fix_a");
  m.add_constraint(LinearExpr().add(a, Rational(1)).add(b, Rational(1)),
                   Sense::kLessEqual, Rational(5), "cap");
  auto sol = expect_certified(m, Rational(9));
  EXPECT_EQ(sol.primal, (std::vector<Rational>{Rational(2), Rational(3)}));
  EXPECT_EQ(sol.dual, (std::vector<Rational>{Rational(1), Rational(1)}));
}

TEST(Presolve, ForcingRowCascadeFixesChain) {
  // u + v == 0 forces u = v = 0, and w - u <= 0 then forces w = 0. Every
  // variable is rewarded, so only those rows and z <= 7 keep the optimum
  // finite.
  Model m;
  VarId u = m.add_variable("u");
  VarId v = m.add_variable("v");
  VarId w = m.add_variable("w");
  VarId z = m.add_variable("z");
  for (const VarId var : {u, v, w, z}) m.set_objective(var, Rational(1));
  m.add_constraint(LinearExpr().add(u, Rational(1)).add(v, Rational(1)),
                   Sense::kEqual, Rational(0), "force_uv");
  m.add_constraint(LinearExpr().add(w, Rational(1)).add(u, Rational(-1)),
                   Sense::kLessEqual, Rational(0), "couple_wu");
  m.add_constraint(LinearExpr().add(z, Rational(1)), Sense::kLessEqual,
                   Rational(7), "cap_z");
  auto sol = expect_certified(m, Rational(7));
  EXPECT_EQ(sol.primal, (std::vector<Rational>{Rational(0), Rational(0),
                                               Rational(0), Rational(7)}));
}

TEST(Presolve, DuplicateRowsKeepTightest) {
  // Three proportional capacity rows, one negated; only x + y <= 3 binds.
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(2)).add(y, Rational(2)),
                   Sense::kLessEqual, Rational(10), "loose");
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(3), "tight");
  m.add_constraint(LinearExpr().add(x, Rational(-1)).add(y, Rational(-1)),
                   Sense::kGreaterEqual, Rational(-4), "negated");
  expect_certified(m, Rational(3));
}

TEST(Presolve, PostsolveLiftIsExact) {
  // 3a == 2 fixes a = 2/3, and b + 2c <= 4 is best spent on b = 4:
  // 2/3 + 8 = 26/3. The returned pair passes the full-model certificate
  // verbatim.
  Model m;
  VarId a = m.add_variable("a");
  VarId b = m.add_variable("b");
  VarId c = m.add_variable("c");
  m.set_objective(a, Rational(1));
  m.set_objective(b, Rational(2));
  m.set_objective(c, Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(3)), Sense::kEqual,
                   Rational(2), "fix_a");
  m.add_constraint(LinearExpr().add(b, Rational(1)).add(c, Rational(2)),
                   Sense::kLessEqual, Rational(4), "cap");
  auto sol = expect_certified(m, Rational(26, 3));
  EXPECT_EQ(sol.primal, (std::vector<Rational>{Rational(2, 3), Rational(4),
                                               Rational(0)}));
  EXPECT_TRUE(ExactSolver::verify_certificate(ExpandedModel::from(m),
                                              sol.primal, sol.dual));
}

TEST(Presolve, DuplicateEqualityConflictProvesInfeasible) {
  // x + y == 2 and 2x + 2y == 6: proportional equalities that disagree.
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(1)),
                   Sense::kEqual, Rational(2));
  m.add_constraint(LinearExpr().add(x, Rational(2)).add(y, Rational(2)),
                   Sense::kEqual, Rational(6));
  expect_proved_infeasible(m);
}

TEST(Presolve, EmptyRowInfeasibilityAfterSubstitution) {
  // a == 1 substituted into 2a <= 1 leaves 0 <= -1.
  Model m;
  VarId a = m.add_variable("a");
  m.set_objective(a, Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(1)), Sense::kEqual,
                   Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(2)), Sense::kLessEqual,
                   Rational(1));
  expect_proved_infeasible(m);
}

TEST(Presolve, NegativeFixProvesInfeasible) {
  // 2a == -3 would need a < 0.
  Model m;
  VarId a = m.add_variable("a");
  VarId b = m.add_variable("b");
  m.set_objective(b, Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(2)), Sense::kEqual,
                   Rational(-3));
  m.add_constraint(LinearExpr().add(b, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  expect_proved_infeasible(m);
}

TEST(ExactSolver, DegenerateModelWarmReSolveCertifies) {
  // A degenerate optimum (redundant tight rows, zero-valued basics) with a
  // fixed variable, a forced-zero pair, proportional rows and a column
  // that only costs. The certified basis must feed a warm re-solve that
  // certifies the same objective.
  Model m;
  VarId a = m.add_variable("a");
  VarId b = m.add_variable("b");
  VarId c = m.add_variable("c");
  VarId dead = m.add_variable("dead");
  m.set_objective(a, Rational(2));
  m.set_objective(b, Rational(1));
  m.set_objective(dead, Rational(-1));
  m.add_constraint(LinearExpr().add(a, Rational(1)), Sense::kEqual,
                   Rational(1), "fix_a");
  m.add_constraint(LinearExpr().add(b, Rational(1)).add(c, Rational(1)),
                   Sense::kEqual, Rational(0), "force_bc");
  m.add_constraint(LinearExpr().add(a, Rational(1)).add(b, Rational(1)),
                   Sense::kLessEqual, Rational(1), "tight1");
  m.add_constraint(LinearExpr().add(a, Rational(2)).add(b, Rational(2)),
                   Sense::kLessEqual, Rational(2), "tight2");
  SolveContext context;
  auto first = ExactSolver().solve(m, &context);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  ASSERT_TRUE(first.certified);
  EXPECT_EQ(first.objective, Rational(2));
  ASSERT_FALSE(context.warm.empty());
  auto warm = ExactSolver().solve(m, &context);
  EXPECT_TRUE(warm.certified);
  EXPECT_TRUE(context.warm_attempted);
  EXPECT_EQ(warm.objective, first.objective);
}

TEST(ExactSolver, RandomizedAgreementWithExactSimplex) {
  // Random small models salted with fixed variables, zero right-hand sides
  // and duplicate structure: every solve must certify the objective the
  // pure exact simplex proves, or agree with its verdict.
  graph::Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    const std::size_t nv = 3 + rng.uniform(0, 4);
    std::vector<VarId> vars;
    for (std::size_t j = 0; j < nv; ++j) {
      vars.push_back(m.add_variable("v" + std::to_string(j)));
      m.set_objective(vars.back(),
                      Rational(static_cast<std::int64_t>(rng.uniform(0, 4))));
    }
    const std::size_t nr = 2 + rng.uniform(0, 4);
    for (std::size_t i = 0; i < nr; ++i) {
      LinearExpr expr;
      for (const VarId v : vars) {
        if (rng.uniform(0, 2) == 0) continue;
        expr.add(v, Rational(static_cast<std::int64_t>(rng.uniform(1, 5))));
      }
      if (expr.empty()) expr.add(vars[0], Rational(1));
      const int kind = static_cast<int>(rng.uniform(0, 3));
      const Sense sense = kind == 0 ? Sense::kLessEqual
                          : kind == 1 ? Sense::kGreaterEqual
                                      : Sense::kEqual;
      // Mostly feasible right-hand sides; occasionally zero, which forces
      // every variable of an equality row to zero.
      const Rational rhs(
          static_cast<std::int64_t>(rng.uniform(0, 3) == 0 ? 0
                                                           : rng.uniform(1, 9)));
      m.add_constraint(expr, sense, rhs, "r" + std::to_string(i));
    }
    // A singleton == row fixes a variable on some trials.
    if (rng.uniform(0, 2) == 0) {
      m.add_constraint(LinearExpr().add(vars[0], Rational(2)), Sense::kEqual,
                       Rational(static_cast<std::int64_t>(rng.uniform(0, 5))),
                       "fix");
    }
    // Cap everything so the model cannot be unbounded.
    LinearExpr cap;
    for (const VarId v : vars) cap.add(v, Rational(1));
    m.add_constraint(cap, Sense::kLessEqual, Rational(20), "cap_all");

    auto fast = ExactSolver().solve(m);
    auto exact = solve_exact_simplex(m);
    ASSERT_EQ(fast.status, exact.status) << "trial " << trial;
    if (exact.status == SolveStatus::kOptimal) {
      EXPECT_TRUE(fast.certified) << "trial " << trial;
      EXPECT_EQ(fast.objective, exact.objective) << "trial " << trial;
    }
  }
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
        "solver_colgen_solves", "solver_colgen_rounds",
        "solver_colgen_columns_generated", "solver_ftran_ns",
        "solver_btran_ns", "solver_pricing_ns", "solver_factor_ns",
        "solver_certify_ns", "solver_pricing_sweep_ns"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace ssco::lp
