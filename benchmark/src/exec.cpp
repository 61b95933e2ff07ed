// exec_drift: plan -> execute -> observe drift -> re-solve -> execute.
//
// One client (closed loop) runs, per request, on a fresh PlanService:
//   1. PlanService::execute on the event backend with a pinned 25% of the
//      links at half rate (4 warm-up + 16 measured periods);
//   2. the drift it infers is re-solved and the corrected plan executed on
//      the event backend again (no injected drift: the corrected platform
//      now models the slow links);
//   3. scatter only, in traced runs, once per pool item: the corrected plan
//      also runs on the threaded backend with 3 workers and a 3 s run
//      deadline (a re-solved plan with a huge LCM period runs for as long
//      as its periods take in real time).
// The request time is steps 1-2. Step 3 runs in real time (about 1 s), so
// on every request it took three quarters of an untraced run and left each
// pool item one or two timed visits; without it an untraced 20 s run visits
// every item about seven times and reports each item's fastest visit.
// exec/program, sim/event_exec, exec/engine
// and infer_cost_drift do the work; the LPs are small. Event-loop cost
// spans 300x across random instances (a re-solved plan's LCM period decides
// it), so the pool is pinned and --seed permutes the visiting order.
//
// The traced half composes the same loop from the public layers —
// submit -> compile_* -> simulate_execution -> infer_cost_drift ->
// apply_delta -> submit — and must reproduce every event-backend efficiency
// of the untraced half bit for bit. PlanService::execute invalidates the
// executed plan before re-submitting the drifted request, so the re-solve
// finds no warm candidate; the composition reproduces that by re-solving
// on a second fresh service.

#include <stdexcept>
#include <type_traits>
#include <string>
#include <vector>

#include "digests.h"
#include "exec/threaded_executor.h"
#include "instances.h"
#include "loop.h"
#include "service/plan_service.h"
#include "sim/event_exec.h"

namespace bench {
namespace {

using namespace ssco;

// Generator seeds of the pool: the first 12 of 1..30 whose drift loop
// completes with every check passing and an event-loop time under 250 ms
// (README.md lists the excluded seeds and why).
constexpr std::uint64_t kScatterSeeds[] = {1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14};
constexpr std::uint64_t kReduceSeeds[] = {2, 3, 4, 6, 8, 11, 14, 15, 18, 21, 22, 24};
constexpr double kHalfRateShare = 0.25;
constexpr double kDriftThreshold = 0.15;  // ExecuteOptions default
constexpr double kMaxEfficiency = 1.010;  // the LP optimum bounds the rate
constexpr double kMinRecovered = 0.990;   // after the drift re-solve

struct Item {
  service::PlanRequest request;
  std::vector<double> link_scale;  // injected drift of step 1
  bool scatter = false;
};

std::vector<Item> make_pool(std::size_t per_kind) {
  std::vector<Item> pool;
  auto add = [&pool](std::uint64_t seed, auto instance) {
    Item it;
    it.scatter = std::is_same_v<decltype(instance), platform::ScatterInstance>;
    it.link_scale = half_rate_links(seed * 7 + 1, instance.platform.num_edges(),
                                    kHalfRateShare);
    it.request.instance = std::move(instance);
    pool.push_back(std::move(it));
  };
  for (std::size_t i = 0; i < per_kind; ++i) {
    add(kScatterSeeds[i], dense_scatter(kScatterSeeds[i], 24, 12));
    add(kReduceSeeds[i], random_reduce(kReduceSeeds[i], 12, 5, /*sparse=*/false));
  }
  return pool;
}

exec::ExecOptions exec_options() {
  exec::ExecOptions o;
  o.warmup_periods = 4;
  o.measure_periods = 16;
  return o;
}

service::PlanServiceOptions service_options() {
  service::PlanServiceOptions o;
  o.num_workers = 2;
  o.solve_threads = 1;
  return o;
}

/// Execution counters over the whole run (both halves).
struct ExecTally {
  double faults = 0, throws = 0, oneport_violations = 0, delivery_errors = 0;
  double over_bound_runs = 0;
  // traced pass only
  PlanSize size;
  double chunk_steps = 0;
  double recovered_sum = 0, recovered_runs = 0;
  double threaded_sum = 0, threaded_runs = 0;

  /// Checks one execution report; returns the failure, or "".
  std::string check(const exec::ExecReport& r) {
    faults += static_cast<double>(r.faults_injected);
    oneport_violations += static_cast<double>(r.oneport_violations);
    delivery_errors += static_cast<double>(r.delivery_errors);
    if (!r.ok()) {
      return r.fault.ok() ? "one-port violations " +
                                std::to_string(r.oneport_violations) +
                                ", delivery errors " +
                                std::to_string(r.delivery_errors)
                          : r.fault.to_string();
    }
    if (r.efficiency > kMaxEfficiency) {
      ++over_bound_runs;
      return "efficiency " + std::to_string(r.efficiency * 1000) +
             " permille above the certified bound";
    }
    return "";
  }
  /// A simulated program: its size and the chunk admissions of one run.
  void simulated(const exec::ExecProgram& p) {
    const exec::ExecOptions o = exec_options();
    chunk_steps += size.add(p) *
                   static_cast<double>(o.warmup_periods + o.measure_periods);
  }
};

const core::PeriodicSchedule& schedule_of(const service::PlanResult& r) {
  return r.payload->flow ? r.payload->flow->schedule : r.payload->reduce->schedule;
}

exec::ExecProgram compile(const service::PlanRequest& req,
                          const service::PlanResult& plan,
                          const exec::ExecOptions& o) {
  const service::PlanPayload& p = *plan.payload;
  if (p.flow) {
    return exec::compile_flow_program(req.platform(), p.flow->flow,
                                      p.flow->schedule, o);
  }
  return exec::compile_reduce_program(
      std::get<platform::ReduceInstance>(req.instance),
      p.reduce->solution.throughput, p.reduce->schedule, o);
}

/// Event-backend efficiencies of one drift loop (steps 1 and 2).
struct Loop {
  double before = 0.0;     // step 1, drifted links
  double recovered = 0.0;  // step 2, after the re-solve
  std::string throughputs;
};

class Runner {
 public:
  Runner(Outcome& out, const Config& cfg, const std::vector<Item>& pool)
      : out_(out), cfg_(cfg), pool_(pool), untraced_(pool.size()),
        threaded_(pool.size()) {}

  /// Steps 1-2 through PlanService::execute.
  Sample untraced(std::size_t item) {
    const Item& it = pool_[item];
    Sample s;
    const char* stage = "execute";
    service::PlanService svc(service_options());
    const auto t0 = Clock::now();
    try {
      service::ExecuteOptions slow;
      slow.simulate = true;
      slow.exec = exec_options();
      slow.exec.link_rate_scale = it.link_scale;
      const service::ExecuteResult r1 = svc.execute(it.request, slow);
      service::ExecuteOptions corr;
      corr.simulate = true;
      corr.exec = exec_options();
      corr.resolve_on_drift = false;
      const service::PlanRequest& corrected =
          r1.resolved ? r1.drifted_request : it.request;
      stage = "execute_corrected";
      const service::ExecuteResult r2 = svc.execute(corrected, corr);
      s.ms = ms_between(t0, Clock::now());
      stage = "check";
      Loop loop{r1.report.efficiency, r2.report.efficiency,
                r1.plan.throughput().to_string() + " " +
                    r2.plan.throughput().to_string()};
      expect(tally_.check(r1.report), "execute");
      expect(tally_.check(r2.report), "execute_corrected");
      expect(loop.recovered >= kMinRecovered
                 ? ""
                 : "recovered efficiency " + std::to_string(loop.recovered * 1000) +
                       " permille",
             "recovery");
      if (!untraced_[item].throughputs.empty() &&
          untraced_[item].throughputs != loop.throughputs) {
        throw std::runtime_error("throughputs changed between passes");
      }
      untraced_[item] = loop;
      s.ok = failed_stage_.empty();
    } catch (const std::exception& e) {
      if (s.ms == 0.0) s.ms = ms_between(t0, Clock::now());
      ++tally_.throws;
      record_failure(out_, cfg_, item, stage, e.what());
    }
    flush_failure(item);
    return s;
  }

  /// The same loop composed from the public layers, with a span around
  /// each call; efficiencies must equal the untraced ones.
  Sample traced(std::size_t item, Ledger& ledger) {
    const Item& it = pool_[item];
    Sample s;
    const char* stage = "submit";
    service::PlanService svc(service_options());
    service::PlanService resolver(service_options());
    const auto t0 = Clock::now();
    try {
      exec::ExecOptions slow = exec_options();
      slow.link_rate_scale = it.link_scale;
      const exec::ExecOptions corr = exec_options();
      Loop loop;
      service::PlanRequest corrected = it.request;
      service::PlanResult plan;
      exec::ExecReport r1, r2;
      exec::ExecProgram p1, p2;
      {
        Ledger::Scope request(&ledger, "request");
        {
          Ledger::Scope span(&ledger, "service.submit");
          plan = svc.submit(it.request).get();
        }
        stage = "compile";
        {
          Ledger::Scope span(&ledger, "exec.compile");
          p1 = compile(it.request, plan, slow);
        }
        stage = "simulate";
        {
          Ledger::Scope span(&ledger, "sim.simulate");
          r1 = sim::simulate_execution(p1, slow);
        }
        platform::PlatformDelta drift;
        if (r1.fault.ok()) {
          stage = "infer_cost_drift";
          Ledger::Scope span(&ledger, "exec.infer_drift");
          drift = exec::infer_cost_drift(it.request.platform(), r1, kDriftThreshold);
        }
        loop.throughputs = plan.throughput().to_string();
        tally_.size.add(schedule_of(plan));
        if (!drift.empty()) {
          stage = "apply_delta";
          {
            Ledger::Scope span(&ledger, "platform.apply_delta");
            auto applied = platform::apply_delta(it.request.platform(), drift);
            std::visit([&](auto& inst) { inst.platform = std::move(applied.platform); },
                       corrected.instance);
          }
          stage = "resubmit";
          Ledger::Scope span(&ledger, "service.submit");
          plan = resolver.submit(corrected).get();
        }
        stage = "compile_corrected";
        {
          Ledger::Scope span(&ledger, "exec.compile");
          p2 = compile(corrected, plan, corr);
        }
        stage = "simulate_corrected";
        {
          Ledger::Scope span(&ledger, "sim.simulate");
          r2 = sim::simulate_execution(p2, corr);
        }
      }
      s.ms = ms_between(t0, Clock::now());
      stage = "check";
      loop.before = r1.efficiency;
      loop.recovered = r2.efficiency;
      loop.throughputs += " " + plan.throughput().to_string();
      tally_.simulated(p1);
      tally_.simulated(p2);
      tally_.size.add(schedule_of(plan));
      tally_.recovered_sum += loop.recovered;
      ++tally_.recovered_runs;
      expect(tally_.check(r1), "simulate");
      expect(tally_.check(r2), "simulate_corrected");
      const Loop& want = untraced_[item];
      if (loop.before != want.before || loop.recovered != want.recovered ||
          loop.throughputs != want.throughputs) {
        expect("composed loop gave efficiencies " + std::to_string(loop.before) +
                   " / " + std::to_string(loop.recovered) +
                   ", PlanService::execute " + std::to_string(want.before) +
                   " / " + std::to_string(want.recovered),
               "composition");
      }
      if (it.scatter && !threaded_[item]) {
        threaded_[item] = true;
        stage = "threaded";
        exec::ExecOptions thr = exec_options();
        thr.workers = 3;
        thr.deadline_seconds = 3.0;
        exec::ExecReport r3;
        {
          Ledger::Scope root(&ledger, "threaded_run");
          Ledger::Scope span(&ledger, "exec.threaded");
          r3 = exec::execute(compile(corrected, plan, thr), thr);
        }
        expect(tally_.check(r3), "threaded");
        tally_.threaded_sum += r3.efficiency;
        ++tally_.threaded_runs;
      }
      s.ok = failed_stage_.empty();
    } catch (const std::exception& e) {
      if (s.ms == 0.0) s.ms = ms_between(t0, Clock::now());
      ++tally_.throws;
      record_failure(out_, cfg_, item, stage, e.what());
    }
    flush_failure(item);
    return s;
  }

  [[nodiscard]] const ExecTally& tally() const { return tally_; }
  [[nodiscard]] const std::vector<Loop>& loops() const { return untraced_; }

 private:
  /// Notes the first failed check of the current request.
  void expect(const std::string& error, const char* stage) {
    if (!error.empty() && failed_stage_.empty()) {
      failed_stage_ = stage;
      failed_error_ = error;
    }
  }
  void flush_failure(std::size_t item) {
    if (!failed_stage_.empty()) {
      record_failure(out_, cfg_, item, failed_stage_, failed_error_);
    }
    failed_stage_.clear();
    failed_error_.clear();
  }

  Outcome& out_;
  const Config& cfg_;
  const std::vector<Item>& pool_;
  std::vector<Loop> untraced_;
  std::vector<bool> threaded_;  // step 3 ran for this pool item
  ExecTally tally_;
  std::string failed_stage_, failed_error_;
};

}  // namespace

Outcome run_exec_drift(const Config& cfg) {
  Outcome out;
  const std::size_t per_kind = cfg.size(std::size(kScatterSeeds));
  SetupClock<std::vector<Item>> setup([&] { return make_pool(per_kind); });
  const std::vector<Item>& pool = setup.inputs();
  const bool comparable = comparable_run(cfg, /*seeded=*/false);
  Digest inputs;
  for (const Item& it : pool) {
    if (it.scatter) {
      inputs.add(std::get<platform::ScatterInstance>(it.request.instance));
    } else {
      inputs.add(std::get<platform::ReduceInstance>(it.request.instance));
    }
    for (double s : it.link_scale) inputs.add(s < 1.0 ? "h" : "f");
  }
  check_inputs(cfg, comparable, inputs.hex());

  const std::vector<std::size_t> order = visit_order(pool.size(), cfg.seed);
  Runner runner(out, cfg, pool);
  const auto untraced = [&](std::size_t item) { return runner.untraced(item); };
  if (!cfg.traced) {
    const auto samples = closed_loop(order, cfg.seconds, 0, [&](std::size_t item) {
      setup.tick();
      return untraced(item);
    });
    out.attempted = samples.size();
    out.metrics["setup_s"] = setup.seconds();
    closed_loop_metrics(out, samples, 0.9);
  } else {
    const auto base = closed_loop(order, cfg.seconds / 2, 0, untraced);
    std::vector<Sample> traced;
    RegistryDelta lp;
    const auto self = run_traced(out, cfg, mean_ms(base), [&](Ledger& ledger) {
      traced = closed_loop(order, 0, base.size(), [&](std::size_t item) {
        return runner.traced(item, ledger);
      });
      return mean_ms(traced);
    });
    lp.stop();
    out.attempted = base.size() + traced.size();
    const double n = static_cast<double>(traced.size());
    add_lp_metrics(out, lp, n, 0.0);
    auto self_ms = [&](const char* layer) {
      auto found = self.find(layer);
      return found == self.end() ? 0.0 : found->second;
    };
    auto per = [](double total, double count) {
      return count > 0.0 ? total / count : 0.0;
    };
    const ExecTally& t = runner.tally();
    out.metrics["service.submit_ms"] = per(self_ms("service.submit"), n);
    out.metrics["exec.compile_ms"] = per(self_ms("exec.compile"), n);
    out.metrics["sim.simulate_ms"] = per(self_ms("sim.simulate"), n);
    out.metrics["exec.infer_drift_ms"] = per(self_ms("exec.infer_drift"), n);
    out.metrics["exec.threaded_ms"] = per(self_ms("exec.threaded"), t.threaded_runs);
    t.size.report(out);
    out.metrics["sim.chunk_steps"] = per(t.chunk_steps, n);
    out.metrics["sim.chunk_steps_per_s"] =
        per(t.chunk_steps, self_ms("sim.simulate") / 1e3);
    out.metrics["exec.efficiency_permille"] =
        1000.0 * per(t.recovered_sum, t.recovered_runs);
    out.metrics["exec.threaded_efficiency_permille"] =
        1000.0 * per(t.threaded_sum, t.threaded_runs);
  }
  const ExecTally& t = runner.tally();
  out.metrics["exec.faults"] = t.faults;
  out.metrics["exec.throws"] = t.throws;
  out.metrics["exec.oneport_violations"] = t.oneport_violations;
  out.metrics["exec.delivery_errors"] = t.delivery_errors;
  out.metrics["exec.over_bound_runs"] = t.over_bound_runs;
  Digest throughputs;
  for (const Loop& loop : runner.loops()) throughputs.add(loop.throughputs);
  check_throughputs(out, cfg, comparable, throughputs.hex());
  return out;
}

}  // namespace bench
