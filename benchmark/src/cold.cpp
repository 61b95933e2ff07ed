// reduce_cold and scatter_cold: one client plans fresh platforms back to
// back (closed loop). A request is the whole cold planning pipeline of one
// operation — LP solve, (reduce: tree extraction,) schedule construction,
// ExecProgram compile — called directly, with no service in front. Solves
// run on one thread: with the default all-cores budget a request's latency
// tracks how many cores other tenants of the machine leave free.

#include <stdexcept>
#include <string>
#include <vector>

#include "core/steady_state.h"
#include "digests.h"
#include "instances.h"
#include "loop.h"

namespace bench {
namespace {

using namespace ssco;

/// Work counters of the traced pass, summed over its requests.
struct Tally {
  double colgen_rounds = 0, columns_generated = 0, columns_total = 0;
  double rows_active = 0, rows_total = 0, stab_rounds = 0, factor_fill = 0;
  double trees = 0;
  PlanSize size;

  void add(const core::PeriodicSchedule& s, const exec::ExecProgram& p) {
    size.add(s);
    size.add(p);
  }
  void add(const core::ReduceSolution& sol) {
    colgen_rounds += static_cast<double>(sol.lp_colgen_rounds);
    columns_generated += static_cast<double>(sol.lp_columns_generated);
    columns_total += static_cast<double>(sol.lp_columns_total);
    rows_active += static_cast<double>(sol.lp_rows_active);
    rows_total += static_cast<double>(sol.lp_rows_total);
    stab_rounds += static_cast<double>(sol.lp_stab_rounds);
    factor_fill += static_cast<double>(sol.lp_phase_times.factor_fill);
  }
};

/// One request, traced when `ledger` is set; `tally` is null when
/// untraced. Sets `ms` to the pipeline's wall time (the output checks run
/// after it) and returns the exact throughput, or throws with the failing
/// stage left in `stage`.
std::string plan_request(const platform::ReduceInstance& inst, Ledger* ledger,
                         Tally* tally, const char*& stage, double& ms) {
  const auto t0 = Clock::now();
  core::ReduceSolution sol;
  core::TreeDecomposition trees;
  core::PeriodicSchedule sched;
  exec::ExecProgram prog;
  {
    Ledger::Scope request(ledger, "request");
    {
      stage = "solve_reduce";
      Ledger::Scope span(ledger, "core.solve");
      core::ReduceLpOptions options;
      options.solver.threads = 1;
      sol = core::solve_reduce(inst, options);
    }
    {
      stage = "extract_trees";
      Ledger::Scope span(ledger, "core.trees");
      trees = core::extract_trees(inst, sol);
    }
    {
      stage = "build_reduce_schedule";
      Ledger::Scope span(ledger, "core.schedule");
      sched = core::build_reduce_schedule(inst, trees);
    }
    {
      stage = "compile_reduce_program";
      Ledger::Scope span(ledger, "exec.compile");
      prog = exec::compile_reduce_program(inst, sol.throughput, sched);
    }
  }
  ms = ms_between(t0, Clock::now());
  stage = "check";
  std::string err = sol.certified ? sol.validate(inst) : "not certified";
  if (err.empty()) err = trees.verify_reconstitution(inst, sol);
  if (err.empty()) err = prog.oneport_error;
  if (!err.empty()) throw std::runtime_error(err);
  if (tally != nullptr) {
    tally->add(sol);
    tally->trees += static_cast<double>(trees.trees.size());
    tally->add(sched, prog);
  }
  return sol.throughput.to_string();
}

std::string plan_request(const platform::ScatterInstance& inst,
                         Ledger* ledger, Tally* tally, const char*& stage,
                         double& ms) {
  const auto t0 = Clock::now();
  core::MultiFlow flow;
  core::PeriodicSchedule sched;
  exec::ExecProgram prog;
  {
    Ledger::Scope request(ledger, "request");
    {
      stage = "solve_scatter";
      Ledger::Scope span(ledger, "core.solve");
      core::ScatterLpOptions options;
      options.solver.threads = 1;
      flow = core::solve_scatter(inst, options);
    }
    {
      stage = "build_flow_schedule";
      Ledger::Scope span(ledger, "core.schedule");
      sched = core::build_flow_schedule(inst.platform, flow);
    }
    {
      stage = "compile_flow_program";
      Ledger::Scope span(ledger, "exec.compile");
      prog = exec::compile_flow_program(inst.platform, flow, sched);
    }
  }
  ms = ms_between(t0, Clock::now());
  stage = "check";
  std::string err = flow.certified ? flow.validate(inst.platform)
                                   : "not certified";
  if (err.empty()) err = prog.oneport_error;
  if (!err.empty()) throw std::runtime_error(err);
  if (tally != nullptr) tally->add(sched, prog);
  return flow.throughput.to_string();
}

/// The closed loop both workloads share. `seeded`: the pool depends on --seed
/// (otherwise the seed only permutes the visiting order).
template <typename Instance, typename MakePool>
Outcome run_cold(const Config& cfg, bool seeded, double tail_q,
                 MakePool&& make_pool) {
  Outcome out;
  SetupClock<std::vector<Instance>> setup(std::forward<MakePool>(make_pool));
  const std::vector<Instance>& pool = setup.inputs();
  const bool comparable = comparable_run(cfg, seeded);
  Digest inputs;
  for (const Instance& inst : pool) inputs.add(inst);
  check_inputs(cfg, comparable, inputs.hex());

  const std::vector<std::size_t> order = visit_order(pool.size(), cfg.seed);
  std::vector<std::string> tps(pool.size());
  auto request = [&](Ledger* ledger, Tally* tally) {
    return [&, ledger, tally](std::size_t item) {
      Sample s;
      const char* stage = "start";
      const auto t0 = Clock::now();
      try {
        std::string tp = plan_request(pool[item], ledger, tally, stage, s.ms);
        if (!tps[item].empty() && tps[item] != tp) {
          throw std::runtime_error("throughput " + tp + " differs from " +
                                   tps[item] + " on an earlier pass");
        }
        tps[item] = std::move(tp);
        s.ok = true;
      } catch (const std::exception& e) {
        if (s.ms == 0.0) s.ms = ms_between(t0, Clock::now());
        record_failure(out, cfg, item, stage, e.what());
      }
      return s;
    };
  };

  if (!cfg.traced) {
    const auto plan = request(nullptr, nullptr);
    const auto samples = closed_loop(order, cfg.seconds, 0, [&](std::size_t item) {
      setup.tick();
      return plan(item);
    });
    out.attempted = samples.size();
    out.metrics["setup_s"] = setup.seconds();
    closed_loop_metrics(out, samples, tail_q);
  } else {
    const auto base = closed_loop(order, cfg.seconds / 2, 0, request(nullptr, nullptr));
    Tally tally;
    std::vector<Sample> traced;
    RegistryDelta lp;
    const auto self = run_traced(out, cfg, mean_ms(base), [&](Ledger& ledger) {
      traced = closed_loop(order, 0, base.size(), request(&ledger, &tally));
      return mean_ms(traced);
    });
    lp.stop();
    out.attempted = base.size() + traced.size();
    const double n = static_cast<double>(traced.size());
    auto self_ms = [&](const char* layer) {
      auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second;
    };
    add_lp_metrics(out, lp, n, self_ms("core.solve"));
    auto per = [n](double total) { return total / n; };
    auto frac = [](double part, double whole) {
      return whole > 0.0 ? part / whole : 0.0;
    };
    out.metrics["lp.factor_fill"] = per(tally.factor_fill);
    out.metrics["lp.colgen_rounds"] = per(tally.colgen_rounds);
    out.metrics["lp.columns_generated"] = per(tally.columns_generated);
    out.metrics["lp.columns_materialized_frac"] =
        frac(tally.columns_generated, tally.columns_total);
    out.metrics["lp.rows_active_frac"] = frac(tally.rows_active, tally.rows_total);
    out.metrics["lp.stab_rounds"] = per(tally.stab_rounds);
    out.metrics["core.solve_ms"] = per(self_ms("core.solve"));
    out.metrics["core.trees_ms"] = per(self_ms("core.trees"));
    out.metrics["core.schedule_ms"] = per(self_ms("core.schedule"));
    out.metrics["core.trees"] = per(tally.trees);
    out.metrics["exec.compile_ms"] = per(self_ms("exec.compile"));
    tally.size.report(out);
  }
  Digest throughputs;
  for (const std::string& tp : tps) throughputs.add(tp);
  check_throughputs(out, cfg, comparable, throughputs.hex());
  return out;
}

}  // namespace

// reduce_cold: sparse fabrics (n=64, ~4 extra arcs per node, 8
// participants), where the full reduce LP passes the column-generation
// threshold on every instance, so lp/colgen, core/interval_colgen and
// lp/basis_lu do most of the work and compile is the second-largest cost on
// large-period plans. Per-instance cost spans 50x (24 ms to 5 s), so a
// seed-derived pool would make the median swing by far more than any bound
// worth keeping; the pool is pinned instead — generator seeds 1..20 minus
// the six whose cold pipeline takes over 2 s (README.md) — and --seed
// permutes the visiting order.
Outcome run_reduce_cold(const Config& cfg) {
  static constexpr std::uint64_t kSeeds[] = {1,  3,  4,  5,  6,  8,  9,
                                             11, 13, 14, 16, 17, 19, 20};
  const std::size_t count = cfg.size(std::size(kSeeds));
  return run_cold<platform::ReduceInstance>(
      cfg, /*seeded=*/false, /*tail_q=*/0.9,
      [count] {
        std::vector<platform::ReduceInstance> pool;
        for (std::size_t i = 0; i < count; ++i) {
          pool.push_back(random_reduce(kSeeds[i], 64, 8, /*sparse=*/true));
        }
        return pool;
      });
}

// scatter_cold: dense platforms (n=40, ~30% of pairs linked, 20 targets).
// The dense revised simplex, presolve and the edge-coloring schedule do the
// work and column generation never runs, so a colgen change must predict
// no change here. Per-instance cost is tight (deciles within 1.5x), so
// instance k of the pool is generated from seed*1000+k. The tail is p90:
// 3-6% of the instances (a seed-dependent share) take 2-6x the median, so
// p95 sat on that boundary and swung 30% between seeds.
Outcome run_scatter_cold(const Config& cfg) {
  const std::size_t count = cfg.size(200);
  const std::uint64_t base = cfg.seed * 1000;
  return run_cold<platform::ScatterInstance>(
      cfg, /*seeded=*/true, /*tail_q=*/0.9,
      [count, base] {
        std::vector<platform::ScatterInstance> pool;
        for (std::size_t k = 0; k < count; ++k) {
          pool.push_back(dense_scatter(base + k, 40, 20));
        }
        return pool;
      });
}

}  // namespace bench
