// Chaos soak bench: the full robustness loop under seeded faults, measured.
//
// One iteration drives the plan service through three phases and exports
// the counters the regression gate watches:
//
//   1. Fault soak — the n=16 acceptance workload executed on the
//      deterministic event backend under exec::chaos_plan scenarios of
//      every severity tier; every run must end classified (clean window,
//      degraded with a typed fault, or typed shed).
//   2. Overload flood — a burst of distinct cold requests against a tiny
//      queue-depth cap on a dedicated instance; admission must shed typed,
//      and every decision must be counted (accepted + shed == submitted).
//   3. Deadline/degraded serve — a warm-compatible request whose deadline
//      has already burned down; serve-stale answers with the last
//      certified plan and re-solves in the background.
//
// Counters (exported into BENCH_lp.json by the bench_lp_json target):
//   degraded_efficiency_permille  mean achieved/certified across the chaos
//       runs that still closed a measurement window — how much throughput
//       graceful degradation preserves. FLOOR-gated by
//       check_bench_regression.cmake: the event backend is deterministic,
//       so any drop is a real robustness regression.
//   shed_errors_unreported  runs that ended in no recognized class (a
//       fault neither surfaced, flagged, nor thrown typed), plus any
//       snapshot where accepted + shed != submitted. HARD ZERO.
//   faults_injected / retransmits  data-plane fault volume.
//   requests_shed / deadline_misses / degraded_served  serving-path
//       degradation volume; all > 0 proves each path actually ran.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <variant>
#include <vector>

#include "exec/faults.h"
#include "exec/program.h"
#include "platform/delta.h"
#include "service/errors.h"
#include "service/plan_service.h"
#include "testing_support.h"

using namespace ssco;

namespace {

exec::ExecOptions event_options() {
  exec::ExecOptions options;
  options.warmup_periods = 8;
  options.measure_periods = 32;
  options.target_period_seconds = 5e-3;
  return options;
}

/// Same structure, +5% costs: warm-compatible, never an exact hit.
service::PlanRequest scaled_request(const service::PlanRequest& base) {
  const platform::Platform& pf = base.platform();
  platform::PlatformDelta delta;
  for (graph::EdgeId e = 0; e < pf.num_edges(); ++e) {
    delta.cost_changes.push_back(
        {e, pf.edge_cost(e) * platform::Rational(21, 20)});
  }
  service::PlanRequest request = base;
  auto applied = platform::apply_delta(pf, delta);
  std::visit([&](auto& instance) { instance.platform = applied.platform; },
             request.instance);
  return request;
}

void BM_ChaosSoak(benchmark::State& state) {
  const auto inst = bench_support::random_scatter_instance(7, 16, 8);
  for (auto _ : state) {
    std::uint64_t unreported = 0;

    // Phase 1 + 3 share a serve-stale service with a generous queue; the
    // single worker keeps phase 3's deadline burn-down deterministic.
    service::PlanServiceOptions sopt;
    sopt.num_workers = 1;
    sopt.serve_stale = true;
    service::PlanService svc(sopt);
    service::PlanRequest request;
    request.instance = inst;

    // Phase 1: seeded chaos scenarios on the deterministic backend.
    double eff_sum = 0.0;
    std::size_t eff_runs = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      service::ExecuteOptions options;
      options.simulate = true;
      options.exec = event_options();
      options.exec.faults = exec::chaos_plan(
          seed, inst.platform.num_edges(), inst.platform.num_nodes(),
          options.exec.target_period_seconds);
      if (seed % 3 == 0) {
        options.exec.deadline_seconds =
            8 * options.exec.target_period_seconds;
      }
      try {
        const service::ExecuteResult run = svc.execute(request, options);
        if (run.report.fault.ok()) {
          eff_sum += run.report.efficiency;
          ++eff_runs;
        } else if (!run.degraded) {
          ++unreported;  // fault without a degraded flag: forbidden
        }
      } catch (const service::ServiceError&) {
        // typed shed: a recognized terminal class
      }
    }
    svc.drain();

    // Phase 2: overload flood against a tiny depth cap on its own
    // instance; admission must shed typed and count both sides.
    service::PlanServiceOptions tight;
    tight.num_workers = 1;
    tight.max_queue_depth = 2;
    service::PlanService flooded(tight);
    std::vector<std::future<service::PlanResult>> accepted;
    for (std::uint64_t i = 0; i < 12; ++i) {
      try {
        service::PlanRequest cold;
        cold.instance = bench_support::random_scatter_instance(600 + i, 12, 5);
        accepted.push_back(flooded.submit(std::move(cold)));
      } catch (const service::ServiceError&) {
      }
    }
    for (auto& f : accepted) (void)f.get();
    flooded.drain();

    // Phase 3: a burned-down deadline on a warm-compatible request — the
    // stale certified plan is served degraded, the solve continues behind.
    std::vector<std::future<service::PlanResult>> fillers;
    for (std::uint64_t i = 0; i < 4; ++i) {
      service::PlanRequest filler;
      filler.instance = bench_support::random_scatter_instance(800 + i, 12, 5);
      fillers.push_back(svc.submit(filler));
    }
    service::PlanRequest variant = scaled_request(request);
    variant.deadline_ms = 0.01;
    const service::PlanResult stale = svc.submit(variant).get();
    if (!stale.degraded) ++unreported;  // the miss must be flagged
    for (auto& f : fillers) (void)f.get();
    svc.drain();

    const obs::Snapshot m = svc.metrics_snapshot();
    const obs::Snapshot fm = flooded.metrics_snapshot();
    auto balanced = [](const obs::Snapshot& snap) {
      return snap.value("service_accepted") + snap.value("service_shed") ==
             snap.value("service_submitted");
    };
    if (!balanced(m)) ++unreported;
    if (!balanced(fm)) ++unreported;
    state.counters["degraded_efficiency_permille"] =
        eff_runs == 0 ? 0.0
                      : static_cast<double>(static_cast<std::int64_t>(
                            1000.0 * eff_sum / static_cast<double>(eff_runs)));
    state.counters["shed_errors_unreported"] =
        static_cast<double>(unreported);
    state.counters["faults_injected"] = m.value("exec_faults_injected");
    state.counters["retransmits"] = m.value("exec_retransmits");
    state.counters["requests_shed"] = fm.value("service_shed");
    state.counters["deadline_misses"] = m.value("service_deadline_misses");
    state.counters["degraded_served"] = m.value("service_degraded_served");
    state.counters["oneport_violations"] = m.value("exec_oneport_violations");
    state.counters["delivery_errors"] = m.value("exec_delivery_errors");
  }
}
BENCHMARK(BM_ChaosSoak)->Iterations(1)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
