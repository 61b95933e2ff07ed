// Pins every ExactSolution field on a fixed corpus of solves.
//
// ExactSolver is a pure function of its model, its options and the warm
// basis in its SolveContext, and every thread budget must give the same
// answer. This suite folds each solve into one FNV-1a digest and pins it:
// status, exact objective, primal and dual, the certified flag and method,
// float and exact pivots, the warm flag, the column-generation record
// (counters and every round-log entry, doubles by bit pattern) and the peak
// LU fill, plus the warm-start basis names and warm telemetry left in the
// SolveContext. Wall-clock times are left out.
//
// The corpus covers the paper models (Fig. 2, 6, 9), seeded dense scatter,
// gossip, reduce and prefix models, reduce and prefix by column generation,
// a warm re-solve of each after a seeded platform cost delta, one natural
// input per rung of the certificate ladder (basis verification, the exact
// simplex, an iteration limit), infeasibility and unboundedness. Each case
// runs at a thread budget of one and on a private pool
// (SSCO_TEST_POOL_WORKERS helpers); both must match the pin.
//
// The digests hold for the portable build: SSCO_NATIVE_ARCH lets the
// compiler contract float expressions differently. When a digest
// mismatches on purpose (a deliberate behaviour change), the failure
// message prints the new value to paste into kPins.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/reduce_trees.h"
#include "core/gossip_lp.h"
#include "core/interval_colgen.h"
#include "core/prefix_lp.h"
#include "core/reduce_lp.h"
#include "core/scatter_lp.h"
#include "graph/rng.h"
#include "lp/colgen.h"
#include "lp/exact_solver.h"
#include "platform/paper_instances.h"
#include "testing/pool.h"
#include "testing/util.h"

namespace ssco::lp {
namespace {

using num::Rational;

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void q(const Rational& r) { str(r.to_string()); }
  void qs(const std::vector<Rational>& v) {
    u64(v.size());
    for (const Rational& r : v) q(r);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add(Fnv1a& h, const ExactSolution& s, const SolveContext& context) {
  h.u64(static_cast<std::uint64_t>(s.status));
  h.q(s.objective);
  h.qs(s.primal);
  h.qs(s.dual);
  h.u64(s.certified ? 1 : 0);
  h.str(s.method);
  h.u64(s.float_iterations);
  h.u64(s.exact_iterations);
  h.u64(s.warm_started ? 1 : 0);
  h.u64(s.colgen.rounds);
  h.u64(s.colgen.columns_seeded);
  h.u64(s.colgen.columns_generated);
  h.u64(s.colgen.columns_total);
  h.u64(s.colgen.rows_active);
  h.u64(s.colgen.rows_total);
  h.u64(s.colgen.stab_rounds);
  h.u64(s.colgen.round_log.size());
  for (const ColGenRoundStat& round : s.colgen.round_log) {
    h.u64(round.columns);
    h.u64(round.pivots);
    h.f64(round.objective);
  }
  h.u64(s.phase_times.factor_fill);
  h.u64(context.warm.entries.size());
  for (const WarmStart::Entry& e : context.warm.entries) {
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.u64(e.bound_row ? 1 : 0);
    h.str(e.name);
  }
  h.u64(context.warm_attempted ? 1 : 0);
  h.u64(context.warm_used ? 1 : 0);
  h.u64(context.cost_shifts);
}

/// `platform` with about a quarter of its edge costs doubled or halved,
/// drawn from `seed`: the drift a warm re-solve starts from.
platform::Platform drifted(const platform::Platform& platform,
                           std::uint64_t seed) {
  graph::Rng rng(seed);
  std::vector<Rational> costs = platform.edge_costs();
  for (Rational& c : costs) {
    if (rng.bernoulli(0.25)) {
      c = rng.bernoulli(0.5) ? c * Rational(2) : c / Rational(2);
    }
  }
  std::vector<Rational> speeds;
  std::vector<std::string> names;
  for (graph::NodeId n = 0; n < platform.num_nodes(); ++n) {
    speeds.push_back(platform.node_speed(n));
    names.push_back(platform.node_name(n));
  }
  return {platform.graph(), std::move(costs), std::move(speeds),
          std::move(names)};
}

/// A cold dense solve of `model`, then a warm re-solve of `drifted_model`
/// through the same context.
void dense_pair(const ExactSolverOptions& options, Fnv1a& h,
                const Model& model, const Model& drifted_model) {
  const ExactSolver solver(options);
  SolveContext context;
  add(h, solver.solve(model, &context), context);
  add(h, solver.solve(drifted_model, &context), context);
}

/// Restricted-master seeds: every task of the three classic reduction
/// trees, the reduce solver's own heuristic.
core::IntervalSeeds tree_seeds(const platform::ReduceInstance& inst) {
  core::IntervalSeeds seeds;
  for (const core::ReductionTree& tree :
       {baselines::flat_reduce_tree(inst), baselines::chain_reduce_tree(inst),
        baselines::binomial_reduce_tree(inst)}) {
    for (const core::TreeTask& task : tree.tasks) {
      if (task.kind == core::TreeTask::Kind::kTransfer) {
        seeds.send.emplace_back(task.interval, task.edge);
      } else {
        seeds.cons.emplace_back(task.node, task.task);
      }
    }
  }
  return seeds;
}

/// One column-generation solve of `inst`, warm from `context` when it holds
/// a basis: the master is seeded with the basis's structural columns too,
/// as the reduce solver does.
void colgen_solve(const ExactSolver& solver, Fnv1a& h,
                  const platform::ReduceInstance& inst,
                  core::IntervalFlowOracle::Family family,
                  const ColGenOptions& colgen, SolveContext& context) {
  core::IntervalFlowOracle oracle(inst, family, {});
  core::IntervalSeeds seeds = tree_seeds(inst);
  std::vector<std::string> names;
  for (const WarmStart::Entry& e : context.warm.entries) {
    if (e.kind == BasisColumn::Kind::kStructural && !e.bound_row) {
      names.push_back(e.name);
    }
  }
  oracle.seed_hints_from_names(names, seeds.send, seeds.cons);
  Model master = oracle.build_master(std::move(seeds));
  add(h, solver.solve_colgen(master, oracle, colgen, &context), context);
}

void colgen_pair(const ExactSolverOptions& options, Fnv1a& h,
                 const platform::ReduceInstance& inst,
                 const platform::ReduceInstance& drifted_inst,
                 core::IntervalFlowOracle::Family family,
                 const ColGenOptions& colgen = {}) {
  const ExactSolver solver(options);
  SolveContext context;
  colgen_solve(solver, h, inst, family, colgen, context);
  colgen_solve(solver, h, drifted_inst, family, colgen, context);
}

platform::GossipInstance random_gossip(std::uint64_t seed, std::size_t n) {
  platform::GossipInstance inst;
  inst.platform = testing::random_platform(seed, n);
  inst.sources = {0, 1};
  inst.targets = {n - 1, n - 2};
  return inst;
}

/// max x + y s.t. p x + y <= 1, x + p y <= 1 at p = 67108879: the optimum
/// 1/(p + 1) per coordinate has a denominator past every reconstruction
/// cap, so the basis-verification rung certifies it.
Model basis_rung_model() {
  const Rational p(67108879);
  Model m;
  const VarId x = m.add_variable("x");
  const VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, p).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(1), "r0");
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, p),
                   Sense::kLessEqual, Rational(1), "r1");
  return m;
}

/// max a + b s.t. a + (1 - eps) b <= 1, a <= 1 at eps = 10^-12: b's reduced
/// cost at a = 1 is eps, under the float engine's tolerance, so the float
/// optimum is the wrong vertex, both certificate rungs fail exactly, and
/// the exact simplex proves 10^12 / (10^12 - 1).
Model exact_rung_model() {
  const Rational eps(num::BigInt(1), num::BigInt::pow(num::BigInt(10), 12));
  Model m;
  const VarId a = m.add_variable("a");
  const VarId b = m.add_variable("b");
  m.set_objective(a, Rational(1));
  m.set_objective(b, Rational(1));
  m.add_constraint(LinearExpr().add(a, Rational(1)).add(b, Rational(1) - eps),
                   Sense::kLessEqual, Rational(1), "tie");
  m.add_constraint(LinearExpr().add(a, Rational(1)), Sense::kLessEqual,
                   Rational(1), "cap");
  return m;
}

/// x in [0, 1] with x >= 2: infeasible.
Model infeasible_model() {
  Model m;
  const VarId x = m.add_variable("x", Rational(0), Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kGreaterEqual,
                   Rational(2), "need");
  return m;
}

/// max x + y s.t. x - y <= 1: unbounded along x = y.
Model unbounded_model() {
  Model m;
  const VarId x = m.add_variable("x");
  const VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(-1)),
                   Sense::kLessEqual, Rational(1), "slope");
  return m;
}

/// One solve of `model` under `options` with one field changed.
void single(const ExactSolverOptions& options, Fnv1a& h, const Model& model,
            const std::function<void(ExactSolverOptions&)>& tweak = {}) {
  ExactSolverOptions o = options;
  if (tweak) tweak(o);
  SolveContext context;
  add(h, ExactSolver(o).solve(model, &context), context);
}

struct PinCase {
  std::string name;
  std::function<void(const ExactSolverOptions&, Fnv1a&)> run;
};

std::vector<PinCase> corpus() {
  using Family = core::IntervalFlowOracle::Family;
  std::vector<PinCase> cases;
  cases.push_back({"fig2_scatter", [](const auto& o, Fnv1a& h) {
    auto inst = platform::fig2_toy();
    const Model cold = core::build_scatter_lp(inst);
    inst.platform = drifted(inst.platform, 2);
    dense_pair(o, h, cold, core::build_scatter_lp(inst));
  }});
  cases.push_back({"fig6_reduce", [](const auto& o, Fnv1a& h) {
    auto inst = platform::fig6_triangle();
    const Model cold = core::build_reduce_lp(inst);
    inst.platform = drifted(inst.platform, 6);
    dense_pair(o, h, cold, core::build_reduce_lp(inst));
  }});
  cases.push_back({"fig9_reduce", [](const auto& o, Fnv1a& h) {
    auto inst = platform::fig9_tiers();
    const Model cold = core::build_reduce_lp(inst);
    inst.platform = drifted(inst.platform, 9);
    dense_pair(o, h, cold, core::build_reduce_lp(inst));
  }});
  for (const std::uint64_t seed : {1u, 4u, 9u, 17u, 26u}) {
    const std::string tag = "_seed" + std::to_string(seed);
    cases.push_back({"scatter10" + tag, [seed](const auto& o, Fnv1a& h) {
      auto inst = testing::random_scatter_instance(seed, 10, 4);
      const Model cold = core::build_scatter_lp(inst);
      inst.platform = drifted(inst.platform, seed + 100);
      dense_pair(o, h, cold, core::build_scatter_lp(inst));
    }});
    cases.push_back({"gossip8" + tag, [seed](const auto& o, Fnv1a& h) {
      auto inst = random_gossip(seed, 8);
      const Model cold = core::build_gossip_lp(inst);
      inst.platform = drifted(inst.platform, seed + 200);
      dense_pair(o, h, cold, core::build_gossip_lp(inst));
    }});
    cases.push_back({"reduce7" + tag, [seed](const auto& o, Fnv1a& h) {
      auto inst = testing::random_reduce_instance(seed, 7, 4);
      const Model cold = core::build_reduce_lp(inst);
      inst.platform = drifted(inst.platform, seed + 300);
      dense_pair(o, h, cold, core::build_reduce_lp(inst));
    }});
    cases.push_back({"prefix7" + tag, [seed](const auto& o, Fnv1a& h) {
      auto inst = testing::random_reduce_instance(seed, 7, 4);
      const Model cold = core::build_prefix_lp(inst);
      inst.platform = drifted(inst.platform, seed + 400);
      dense_pair(o, h, cold, core::build_prefix_lp(inst));
    }});
    cases.push_back({"reduce9_colgen" + tag, [seed](const auto& o, Fnv1a& h) {
      const auto inst = testing::random_reduce_instance(seed, 9, 5);
      auto next = inst;
      next.platform = drifted(inst.platform, seed + 500);
      colgen_pair(o, h, inst, next, Family::kReduce);
    }});
    cases.push_back({"prefix8_colgen" + tag, [seed](const auto& o, Fnv1a& h) {
      const auto inst = testing::random_reduce_instance(seed, 8, 4);
      auto next = inst;
      next.platform = drifted(inst.platform, seed + 600);
      colgen_pair(o, h, inst, next, Family::kPrefix);
    }});
  }
  // Small batches: many rounds, the column pool and Wentges smoothing.
  cases.push_back({"reduce9_colgen_batch2", [](const auto& o, Fnv1a& h) {
    const auto inst = testing::random_reduce_instance(3, 9, 5);
    auto next = inst;
    next.platform = drifted(inst.platform, 703);
    colgen_pair(o, h, inst, next, Family::kReduce, ColGenOptions{.batch = 2});
  }});
  cases.push_back({"basis_rung", [](const auto& o, Fnv1a& h) {
    single(o, h, basis_rung_model());
  }});
  cases.push_back({"exact_rung", [](const auto& o, Fnv1a& h) {
    single(o, h, exact_rung_model());
  }});
  cases.push_back({"fig2_iteration_limit", [](const auto& o, Fnv1a& h) {
    single(o, h, core::build_scatter_lp(platform::fig2_toy()),
           [](ExactSolverOptions& t) { t.simplex.max_iterations = 1; });
  }});
  cases.push_back({"infeasible_exact", [](const auto& o, Fnv1a& h) {
    single(o, h, infeasible_model());
  }});
  cases.push_back({"unbounded", [](const auto& o, Fnv1a& h) {
    single(o, h, unbounded_model());
  }});
  return cases;
}

struct Pin {
  const char* name;
  std::uint64_t digest;
};

constexpr Pin kPins[] = {
    {"fig2_scatter", 0x49a22fc5453a2756ull},
    {"fig6_reduce", 0xaf3bde10a66a4c5full},
    {"fig9_reduce", 0xf341768fcc28632full},
    {"scatter10_seed1", 0x239fd6e6632e9edbull},
    {"gossip8_seed1", 0x78afe8dcd6f583d5ull},
    {"reduce7_seed1", 0xd724a6fb82be0774ull},
    {"prefix7_seed1", 0x3fd7d0cce06ab5d7ull},
    {"reduce9_colgen_seed1", 0x251cb1494ef6e1fcull},
    {"prefix8_colgen_seed1", 0xad4b070adbce40ceull},
    {"scatter10_seed4", 0x3b0dde681d9006dull},
    {"gossip8_seed4", 0x245c7f1466749576ull},
    {"reduce7_seed4", 0xd48f8d8fdae2ebadull},
    {"prefix7_seed4", 0x977bf95b9c2261f4ull},
    {"reduce9_colgen_seed4", 0xc71360d7c8dcc8daull},
    {"prefix8_colgen_seed4", 0xda853d92c7da300eull},
    {"scatter10_seed9", 0x2b5fe8a0d44f5bdfull},
    {"gossip8_seed9", 0xf3e9a322338c1540ull},
    {"reduce7_seed9", 0x6006b3834486f0ceull},
    {"prefix7_seed9", 0xc6f1e0a60548595ull},
    {"reduce9_colgen_seed9", 0x1eb746bc1574a465ull},
    {"prefix8_colgen_seed9", 0xc9ac1ada148305f6ull},
    {"scatter10_seed17", 0x59b7a9192b295caeull},
    {"gossip8_seed17", 0xb832f93aafc9afaaull},
    {"reduce7_seed17", 0x175d7f99856fcd21ull},
    {"prefix7_seed17", 0x9e0e6b85240ddc73ull},
    {"reduce9_colgen_seed17", 0x5610af869d722d14ull},
    {"prefix8_colgen_seed17", 0xef83eacf53f672eaull},
    {"scatter10_seed26", 0xd73e15457c69bf03ull},
    {"gossip8_seed26", 0xd7ec614e5c27c6cdull},
    {"reduce7_seed26", 0x90b0b75b3ec45a64ull},
    {"prefix7_seed26", 0xce11cf388986f6a5ull},
    {"reduce9_colgen_seed26", 0x5106926975b29a6ull},
    {"prefix8_colgen_seed26", 0x95398836b15e3edfull},
    {"reduce9_colgen_batch2", 0x10f24ba5f4020d95ull},
    {"basis_rung", 0x17985cf1038665acull},
    {"exact_rung", 0xbdbadd9675e9ccc9ull},
    {"fig2_iteration_limit", 0xeec2462f952c421full},
    {"infeasible_exact", 0xf1827396ce84c18cull},
    {"unbounded", 0xc2d1b7fbe0e4ef58ull},
};

std::uint64_t pinned(const std::string& name) {
  for (const Pin& pin : kPins) {
    if (name == pin.name) return pin.digest;
  }
  return 0;
}

std::uint64_t run_case(const PinCase& c, const ExactSolverOptions& options) {
  Fnv1a h;
  c.run(options, h);
  return h.value();
}

TEST(ExactSolverPin, EverySolveFieldPinnedAtEveryBudget) {
  ThreadPool pool(testing::test_pool_workers());
  ExactSolverOptions serial;
  serial.threads = 1;
  ExactSolverOptions sharded;
  sharded.pool = &pool;
  sharded.threads = 4;
  for (const PinCase& c : corpus()) {
    SCOPED_TRACE(c.name);
    const std::uint64_t one = run_case(c, serial);
    const std::uint64_t many = run_case(c, sharded);
    EXPECT_EQ(one, many) << "budget changed the result";
    EXPECT_EQ(one, pinned(c.name))
        << "new digest: {\"" << c.name << "\", 0x" << std::hex << one
        << "ull},";
  }
}

}  // namespace
}  // namespace ssco::lp
