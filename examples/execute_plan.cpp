// Execution data plane walkthrough: run a certified plan, measure achieved
// throughput against the LP bound, and let observed drift trigger a warm
// re-solve.
//
//   1. serve a 16-node scatter plan through the PlanService;
//   2. execute it on the threaded backend (real worker threads, real
//      buffers, token-bucket pacing) and on the deterministic
//      discrete-event backend; both report achieved vs certified
//      bytes/sec;
//   3. degrade every link to half its modeled rate (drift injection) and
//      execute again: efficiency collapses to ~50%, the executor's
//      per-edge rate observations come back as a platform::PlatformDelta,
//      and the service warm re-solves the corrected request;
//   4. execute the corrected plan: efficiency against the NEW certified
//      bound recovers to ~100%.
//
// Pass `--trace out.json` to capture the whole loop as a Chrome
// trace-event file: solver phases, service events and per-port executor
// occupations land on one timeline, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. The unified metrics
// snapshot (Prometheus text) prints at the end.
//
// Pass `--faults` for the chaos walkthrough instead: the same plan runs
// under seeded exec::chaos_plan scenarios of every severity tier (chunk
// loss + retransmission, jitter, rate collapse, node slowdown, blackout,
// and a hard run deadline). Every run ends classified — clean window,
// degraded with a typed fault, or typed shed — and the degradation
// counters (faults injected, retransmits, deadline misses, degraded
// serves) print at the end.

#include <cstdio>
#include <cstring>

#include "exec/faults.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "obs/trace.h"
#include "service/errors.h"
#include "service/metrics.h"
#include "service/plan_service.h"

using namespace ssco;
using num::Rational;

namespace {

platform::ScatterInstance make_instance() {
  constexpr std::size_t kNodes = 16;
  graph::Rng rng(5);
  graph::Digraph topo = graph::random_connected(kNodes, 0.3, rng);
  std::vector<Rational> costs;
  costs.reserve(topo.num_edges());
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    graph::EdgeId reverse = topo.find_edge(topo.edge(e).dst, topo.edge(e).src);
    if (reverse != graph::kInvalidId && reverse < e) {
      costs.push_back(costs[reverse]);
    } else {
      costs.emplace_back(static_cast<std::int64_t>(rng.uniform(1, 4)),
                         static_cast<std::int64_t>(rng.uniform(1, 3)));
    }
  }
  std::vector<Rational> speeds(kNodes, Rational(1));
  platform::ScatterInstance inst;
  inst.platform =
      platform::Platform(std::move(topo), std::move(costs), std::move(speeds));
  inst.source = 0;
  inst.targets = {kNodes - 1, kNodes - 2, kNodes - 3, kNodes - 4};
  return inst;
}

void report(const char* stage, const service::ExecuteResult& run) {
  std::printf("%-24s %7.2f / %7.2f MB/s   efficiency %5.1f%%   %s\n", stage,
              run.report.achieved_bytes_per_sec / 1e6,
              run.report.certified_bytes_per_sec / 1e6,
              100.0 * run.report.efficiency,
              run.resolved ? "-> drift observed, warm re-solved" : "");
}

/// Chaos walkthrough: seeded fault plans of rising severity against the
/// deterministic event backend, every outcome classified.
int run_faults() {
  service::PlanServiceOptions options;
  options.serve_stale = true;
  service::PlanService svc(options);
  service::PlanRequest request;
  request.instance = make_instance();
  const auto& pf =
      std::get<platform::ScatterInstance>(request.instance).platform;

  std::printf("chaos walkthrough: n=%zu scatter, event backend, seeds 1-6\n\n",
              pf.num_nodes());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    service::ExecuteOptions options;
    options.simulate = true;
    options.exec.warmup_periods = 6;
    options.exec.measure_periods = 16;
    options.exec.target_period_seconds = 4e-3;
    options.exec.faults = exec::chaos_plan(seed, pf.num_edges(),
                                           pf.num_nodes(),
                                           options.exec.target_period_seconds);
    const bool deadline = seed % 3 == 0;
    if (deadline) {
      options.exec.deadline_seconds = 8 * options.exec.target_period_seconds;
    }
    std::printf("seed %llu (severity %llu%s): ",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed % 4),
                deadline ? ", 8-period deadline" : "");
    try {
      const service::ExecuteResult run = svc.execute(request, options);
      if (run.report.fault.ok()) {
        std::printf("clean   efficiency %5.1f%%  (%llu faults injected, "
                    "%llu retransmits)\n",
                    100.0 * run.report.efficiency,
                    static_cast<unsigned long long>(
                        run.report.faults_injected),
                    static_cast<unsigned long long>(run.report.retransmits));
      } else {
        std::printf("degraded [%s]\n", run.report.fault.to_string().c_str());
      }
    } catch (const service::ServiceError& error) {
      std::printf("shed    [%s]\n", error.what());
    }
  }

  const obs::Snapshot m = svc.metrics_snapshot();
  std::printf("\nfaults injected %.0f | retransmits %.0f | deadline misses "
              "%.0f | degraded served %.0f | shed %.0f\n",
              m.value("exec_faults_injected"), m.value("exec_retransmits"),
              m.value("service_deadline_misses"),
              m.value("service_degraded_served"), m.value("service_shed"));
  std::printf("one-port violations %.0f | delivery errors %.0f (both must be "
              "0: faults degrade throughput, never correctness)\n",
              m.value("exec_oneport_violations"),
              m.value("exec_delivery_errors"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) return run_faults();
    if (i + 1 < argc && std::strcmp(argv[i], "--trace") == 0) {
      trace_path = argv[i + 1];
    }
  }
  // Generous rings: the event-exec runs emit every port occupation from one
  // thread, and the early service spans must survive to the export.
  if (trace_path != nullptr) obs::Trace::enable(1 << 16);

  service::PlanService svc;
  service::PlanRequest request;
  request.instance = make_instance();
  const auto& pf = std::get<platform::ScatterInstance>(request.instance)
                       .platform;

  // Healthy platform: both backends reach the certified bound.
  service::ExecuteOptions threaded;
  threaded.exec.warmup_periods = 6;
  threaded.exec.measure_periods = 16;
  threaded.exec.target_period_seconds = 4e-3;
  report("threaded (8 workers)", svc.execute(request, threaded));

  service::ExecuteOptions event = threaded;
  event.simulate = true;
  report("discrete-event", svc.execute(request, event));

  // Every link silently degrades to half its modeled rate: the plan's
  // certified bound is now stale, and the executor measures the gap.
  service::ExecuteOptions degraded = event;
  degraded.exec.link_rate_scale.assign(pf.num_edges(), 0.5);
  const service::ExecuteResult slow = svc.execute(request, degraded);
  report("links at half rate", slow);

  // Re-execute the corrected plan on the same (degraded) hardware:
  // efficiency against the corrected bound recovers.
  if (slow.resolved) {
    report("after warm re-solve", svc.execute(slow.drifted_request, event));
  }

  const obs::Snapshot snapshot = svc.metrics_snapshot();
  std::printf("\n%s\n",
              service::format_metrics(snapshot, svc.shard_metrics()).c_str());
  std::printf("%s\n", snapshot.prometheus().c_str());

  if (trace_path != nullptr) {
    obs::Trace::disable();
    if (!obs::Trace::save(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path);
      return 1;
    }
    std::printf("trace: %zu events (%llu dropped) -> %s\n",
                obs::Trace::event_count(),
                static_cast<unsigned long long>(obs::Trace::dropped()),
                trace_path);
  }
  return 0;
}
