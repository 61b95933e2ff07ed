// Execution data-plane bench: run certified plans through both executor
// backends and track achieved bytes/sec against the LP-certified bound.
//
// Workloads (exported into BENCH_lp.json by the bench_lp_json target):
//   BM_ExecThreadedScatter/16  the acceptance workload — a random
//       heterogeneous n=16 scatter executed by 8 worker threads pushing
//       real buffers through bounded channels under token-bucket pacing.
//       efficiency_permille >= 850 is the bar; oneport_violations and
//       delivery_errors must be 0.
//   BM_ExecEventScatter/16     the same program on the discrete-event
//       backend: deterministic, so its efficiency_permille is gated
//       tightly by the bench regression check.
//   BM_ExecDriftRecovery       the closed serving loop under injected
//       drift (every link at half its modeled rate): efficiency collapses
//       to ~50%, the observed rates feed back as a PlatformDelta, the
//       warm re-solve recovers efficiency against the corrected bound.
//
// Counters per benchmark:
//   efficiency_permille   1000 * achieved / certified (integer, gated)
//   achieved_mb_per_sec   payload throughput the executor sustained
//   certified_mb_per_sec  the LP bound for the same plan and pacing
//   oneport_violations    admission-order violations (must be 0)
//   delivery_errors       duplicate/missing/corrupt messages (must be 0)
//   drift recovery only: efficiency_before/after_permille, drift_resolves

#include <benchmark/benchmark.h>

#include <cstddef>

#include "core/steady_state.h"
#include "exec/exec_report.h"
#include "exec/threaded_executor.h"
#include "service/plan_service.h"
#include "sim/event_exec.h"
#include "testing_support.h"

using namespace ssco;

namespace {

exec::ExecOptions exec_options(std::size_t workers) {
  exec::ExecOptions options;
  options.workers = workers;
  options.warmup_periods = 8;
  options.measure_periods = 32;
  options.target_period_seconds = 5e-3;
  return options;
}

void report_exec(benchmark::State& state, const exec::ExecReport& report) {
  if (!report.fault.ok()) {
    state.SkipWithError(report.fault.to_string().c_str());
    return;
  }
  state.counters["efficiency_permille"] =
      static_cast<double>(static_cast<std::int64_t>(report.efficiency * 1000));
  state.counters["achieved_mb_per_sec"] = report.achieved_bytes_per_sec / 1e6;
  state.counters["certified_mb_per_sec"] =
      report.certified_bytes_per_sec / 1e6;
  state.counters["oneport_violations"] =
      static_cast<double>(report.oneport_violations);
  state.counters["delivery_errors"] =
      static_cast<double>(report.delivery_errors);
}

// The acceptance workload: random heterogeneous n=16 scatter, 8 worker
// threads, real payload bytes.
void BM_ExecThreadedScatter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = bench_support::random_scatter_instance(7, n, n / 2);
  const core::FlowPlan plan = core::optimize_scatter(inst);
  for (auto _ : state) {
    const exec::ExecReport report =
        exec::execute_flow(inst.platform, plan, exec_options(/*workers=*/8));
    report_exec(state, report);
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<std::int64_t>(report.wire_bytes));
  }
}
BENCHMARK(BM_ExecThreadedScatter)->Arg(16)->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Same program, discrete-event backend: deterministic counters.
void BM_ExecEventScatter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = bench_support::random_scatter_instance(7, n, n / 2);
  const core::FlowPlan plan = core::optimize_scatter(inst);
  for (auto _ : state) {
    const exec::ExecReport report =
        sim::simulate_flow_execution(inst.platform, plan, exec_options(0));
    report_exec(state, report);
  }
}
BENCHMARK(BM_ExecEventScatter)->Arg(16)->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The closed loop under injected drift, on the deterministic backend.
void BM_ExecDriftRecovery(benchmark::State& state) {
  const auto inst = bench_support::random_scatter_instance(11, 12, 5);
  for (auto _ : state) {
    service::PlanService svc;
    service::PlanRequest request;
    request.instance = inst;

    service::ExecuteOptions degraded;
    degraded.simulate = true;
    degraded.exec = exec_options(0);
    degraded.exec.link_rate_scale.assign(inst.platform.num_edges(), 0.5);
    const service::ExecuteResult slow = svc.execute(request, degraded);
    if (!slow.report.fault.ok()) {
      state.SkipWithError(slow.report.fault.to_string().c_str());
      return;
    }

    service::ExecuteOptions corrected;
    corrected.simulate = true;
    corrected.exec = exec_options(0);
    const service::ExecuteResult recovered =
        slow.resolved ? svc.execute(slow.drifted_request, corrected) : slow;
    report_exec(state, recovered.report);
    state.counters["efficiency_before_permille"] = static_cast<double>(
        static_cast<std::int64_t>(slow.report.efficiency * 1000));
    state.counters["efficiency_after_permille"] = static_cast<double>(
        static_cast<std::int64_t>(recovered.report.efficiency * 1000));
    state.counters["drift_resolves"] =
        svc.metrics_snapshot().value("service_drift_resolves");
  }
}
BENCHMARK(BM_ExecDriftRecovery)->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
