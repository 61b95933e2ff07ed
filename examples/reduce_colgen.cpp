// Large-reduce column generation walkthrough: watch the restricted master
// GROW instead of materializing the quadratic variable space.
//
// The reduce LP (paper Sec. 4.2) carries one send variable per (adjacent
// interval, edge) plus merge placements — tens of thousands of columns on a
// large sparse platform, of which the optimum touches a few hundred. This
// example solves one such instance twice:
//
//   1. by delayed column generation (core/interval_colgen.h + lp/colgen.h):
//      the master starts from the flat/chain/binomial reduction-tree seeds,
//      and each round prices the implicit columns against the master's
//      duals, appending only violated ones — the per-round table below is
//      the restricted master's growth curve;
//   2. densely, building every column up front — the ground truth the
//      colgen objective must (and does) match bit for bit, because
//      `certified` means the COMPLETE model either way: colgen finishes
//      with an exact-rational pricing sweep over every column it never
//      materialized.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baselines/reduce_trees.h"
#include "core/interval_colgen.h"
#include "core/reduce_lp.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "lp/colgen.h"
#include "platform/platform.h"

using namespace ssco;
using num::Rational;

namespace {

/// Sparse random platform in the wafer-scale density regime (~4 extra arcs
/// per node on top of a random spanning tree).
platform::ReduceInstance large_sparse_reduce(std::uint64_t seed,
                                             std::size_t n,
                                             std::size_t participants) {
  graph::Rng rng(seed);
  graph::Digraph topo =
      graph::random_connected(n, 4.0 / static_cast<double>(n), rng);
  std::vector<Rational> costs(topo.num_edges());
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    graph::EdgeId reverse = topo.find_edge(topo.edge(e).dst, topo.edge(e).src);
    if (reverse != graph::kInvalidId && reverse < e) {
      costs[e] = costs[reverse];
    } else {
      costs[e] = Rational(static_cast<std::int64_t>(rng.uniform(1, 6)),
                          static_cast<std::int64_t>(rng.uniform(1, 4)));
    }
  }
  std::vector<Rational> speeds;
  for (std::size_t i = 0; i < n; ++i) {
    speeds.emplace_back(static_cast<std::int64_t>(rng.uniform(1, 10)));
  }
  platform::ReduceInstance inst;
  inst.platform = platform::Platform(std::move(topo), std::move(costs),
                                     std::move(speeds));
  for (std::size_t i = 0; i < participants; ++i) {
    inst.participants.push_back(n - participants + i);
  }
  inst.target = inst.participants.back();
  return inst;
}

/// One colgen pass at the given thread budget: fresh oracle + master (the
/// master grows during the solve, so passes cannot share one), wall-clock
/// around the whole call, the solver's own per-phase split returned inside
/// the solution.
struct ColgenPass {
  lp::ExactSolution solution;
  double wall_ms = 0;
};

ColgenPass run_colgen(const platform::ReduceInstance& inst,
                      std::size_t threads) {
  core::IntervalFlowOracle oracle(inst,
                                  core::IntervalFlowOracle::Family::kReduce,
                                  inst.participants);
  std::vector<std::pair<std::size_t, graph::EdgeId>> send_seed;
  std::vector<std::pair<graph::NodeId, std::size_t>> cons_seed;
  for (const auto& tree : {baselines::flat_reduce_tree(inst),
                           baselines::chain_reduce_tree(inst),
                           baselines::binomial_reduce_tree(inst)}) {
    for (const auto& task : tree.tasks) {
      if (task.kind == core::TreeTask::Kind::kTransfer) {
        send_seed.emplace_back(task.interval, task.edge);
      } else {
        cons_seed.emplace_back(task.node, task.task);
      }
    }
  }
  lp::Model master = oracle.build_master(send_seed, cons_seed);
  lp::ExactSolverOptions options;
  options.threads = threads;
  lp::ExactSolver solver(options);
  ColgenPass pass;
  const auto start = std::chrono::steady_clock::now();
  pass.solution = solver.solve_colgen(master, oracle, lp::ColGenOptions{});
  pass.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return pass;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: thread budget for the parallel pass (default 8).
  // Results are bit-identical at every setting — the fabric's determinism
  // contract — so the comparison below is purely about where the
  // wall-clock goes.
  const std::size_t threads =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;

  // The BM_ReduceLpLarge/256 instance: ~53k implicit columns, of which the
  // loop below materializes roughly a fifth (the dense pass at the end
  // takes ~4x the colgen wall-clock — that ratio is the whole point).
  const auto inst = large_sparse_reduce(44, 256, 8);
  std::printf("colgen pass 1: serial; pass 2: %zu-thread budget\n", threads);

  // --- 1. Column generation, serial then parallel. ------------------------
  const ColgenPass serial = run_colgen(inst, 1);
  const ColgenPass parallel = run_colgen(inst, threads);
  const lp::ExactSolution& colgen = serial.solution;
  const lp::ColGenRecord& record = colgen.colgen;
  std::printf("full model: %zu columns implicit; %zu ever materialized\n",
              record.columns_total,
              record.columns_seeded + record.columns_generated);
  std::printf("\n round | master cols | pivots | float objective\n");
  for (std::size_t r = 0; r < record.round_log.size(); ++r) {
    const auto& row = record.round_log[r];
    std::printf(" %5zu | %11zu | %6zu | %.9f\n", r, row.columns, row.pivots,
                row.objective);
  }
  std::printf(
      "\ncolgen: TP = %s, certified = %s, method = %s\n"
      "        %zu of %zu columns ever materialized (%zu generated beyond "
      "the seed)\n",
      colgen.objective.to_string().c_str(), colgen.certified ? "yes" : "no",
      colgen.method.c_str(),
      record.columns_seeded + record.columns_generated,
      record.columns_total, record.columns_generated);

  // Per-phase wall-clock split, serial vs parallel. The serial-equal float
  // simplex phases (ftran/btran/pricing/factor) should match to noise;
  // the sharded buckets — certification and the colgen pricing sweeps —
  // are where the thread budget shows up on multi-core hosts.
  const lp::SolvePhaseTimes& s = serial.solution.phase_times;
  const lp::SolvePhaseTimes& p = parallel.solution.phase_times;
  std::printf("\n phase         | serial ms | %2zu-thread ms\n", threads);
  std::printf(" factor        | %9.1f | %9.1f\n", ms(s.factor_ns),
              ms(p.factor_ns));
  std::printf(" ftran         | %9.1f | %9.1f\n", ms(s.ftran_ns),
              ms(p.ftran_ns));
  std::printf(" btran         | %9.1f | %9.1f\n", ms(s.btran_ns),
              ms(p.btran_ns));
  std::printf(" pricing       | %9.1f | %9.1f\n", ms(s.pricing_ns),
              ms(p.pricing_ns));
  std::printf(" pricing sweep | %9.1f | %9.1f   (sharded)\n",
              ms(s.pricing_sweep_ns), ms(p.pricing_sweep_ns));
  std::printf(" certify       | %9.1f | %9.1f   (sharded)\n",
              ms(s.certify_ns), ms(p.certify_ns));
  std::printf(" total wall    | %9.1f | %9.1f\n", serial.wall_ms,
              parallel.wall_ms);
  std::printf("serial == %zu-thread objective: %s\n", threads,
              serial.solution.objective == parallel.solution.objective
                  ? "bit-identical"
                  : "MISMATCH");

  // --- 2. The dense build: every column up front, same exact answer. ------
  core::ReduceLpOptions dense_options;
  dense_options.colgen = core::ColGenMode::kNever;
  core::ReduceSolution dense = core::solve_reduce(inst, dense_options);
  std::printf("\ndense:  TP = %s, certified = %s, method = %s\n",
              dense.throughput.to_string().c_str(),
              dense.certified ? "yes" : "no", dense.lp_method.c_str());
  std::printf("objectives bit-identical: %s\n",
              colgen.objective == dense.throughput ? "yes" : "NO");
  return colgen.objective == dense.throughput ? 0 : 1;
}
