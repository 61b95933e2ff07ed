// Plan-service throughput stress bench: many concurrent clients planning
// over one slowly-drifting platform.
//
// Workload (BM_ServiceThroughput/32): an n=32 scatter platform drifts
// through K chained one-edge cost perturbations; 8 client threads submit
// 1008 requests against the drifting sequence (every variant is requested
// by many clients, as in a real fan-in). The service should serve the
// repeats as exact cache hits and each fresh variant as an
// incremental warm re-solve from the previous variant's basis — so
// plans/sec is dominated by cache arithmetic, not simplex pivots.
//
// Counters (exported into BENCH_lp.json by the bench_lp_json target):
//   plans_per_sec       requests served per second by the service
//   cold_plans_per_sec  extrapolated rate if every request solved cold
//   speedup             ratio of the two (acceptance: >= 10x)
//   hit_rate            (exact + warm hits) / served  (acceptance: >= 0.90)
//   exact_hits / warm_hits / cold_solves / dedup      absolute counts
//   mismatches          sampled service plans whose exact throughput
//                       differs from a cold solve (must be 0: warm plans
//                       are certificate-identical to cold ones)

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/scatter_lp.h"
#include "graph/rng.h"
#include "platform/delta.h"
#include "service/plan_service.h"
#include "testing_support.h"

using namespace ssco;

namespace {

using graph::EdgeId;
using graph::Rng;

/// Chained drift: variant k is variant k-1 with one edge cost nudged ±5%.
std::vector<platform::ScatterInstance> drifting_variants(
    std::uint64_t seed, std::size_t n, std::size_t num_targets,
    std::size_t count) {
  std::vector<platform::ScatterInstance> variants;
  variants.reserve(count);
  variants.push_back(bench_support::random_scatter_instance(seed, n, num_targets));
  Rng rng(seed + 1);
  while (variants.size() < count) {
    const platform::Platform& prev = variants.back().platform;
    platform::PlatformDelta delta;
    const EdgeId e = static_cast<EdgeId>(rng.uniform(0, prev.num_edges() - 1));
    delta.cost_changes.push_back(
        {e, prev.edge_cost(e) * (rng.bernoulli(0.5) ? num::Rational(21, 20)
                                                    : num::Rational(19, 20))});
    platform::ScatterInstance next = variants.back();
    next.platform = platform::apply_delta(prev, delta).platform;
    variants.push_back(std::move(next));
  }
  return variants;
}

struct WorkloadResult {
  double serve_seconds = 0;
  double cold_seconds_per_plan = 0;
  std::size_t requests = 0;
  std::size_t mismatches = 0;
  obs::Snapshot metrics;  // PlanService::metrics_snapshot() after the run
};

WorkloadResult run_workload(const std::vector<platform::ScatterInstance>& variants,
                            std::size_t requests, std::size_t clients,
                            std::size_t workers) {
  WorkloadResult out;
  out.requests = requests;

  service::PlanServiceOptions options;
  options.num_workers = workers;
  options.num_shards = 8;
  options.shard_capacity = 128;
  service::PlanService svc(options);

  // Request i asks for the platform as of drift step i * K / R: all
  // clients track the same drifting platform, interleaved by stride.
  auto variant_of = [&](std::size_t i) {
    return (i * variants.size()) / requests;
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<service::PlanResult>> pending;
      for (std::size_t i = c; i < requests; i += clients) {
        service::PlanRequest request;
        request.instance = variants[variant_of(i)];
        pending.push_back(svc.submit(std::move(request)));
        // Clients wait in small batches — enough back-pressure to model
        // request/response clients, enough overlap to exercise dedup.
        if (pending.size() >= 4) {
          for (auto& f : pending) benchmark::DoNotOptimize(f.get().payload);
          pending.clear();
        }
      }
      for (auto& f : pending) benchmark::DoNotOptimize(f.get().payload);
    });
  }
  for (std::thread& t : threads) t.join();
  svc.drain();
  out.serve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.metrics = svc.metrics_snapshot();

  // Cold baseline: solve a spread of variants from scratch and average.
  // Only the cold solves themselves are timed; the service probes for the
  // certificate-identity check run outside the accumulated window.
  const std::size_t samples = std::min<std::size_t>(5, variants.size());
  const std::size_t spread = std::max<std::size_t>(1, samples - 1);
  double cold_seconds = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto& inst = variants[(s * (variants.size() - 1)) / spread];
    const auto cold_start = std::chrono::steady_clock::now();
    auto cold = core::solve_scatter(inst);
    cold_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      cold_start)
            .count();
    benchmark::DoNotOptimize(cold.throughput);
    // Certificate identity: the served plan for this variant must match.
    service::PlanRequest probe;
    probe.instance = inst;
    auto served = svc.submit(std::move(probe)).get();
    if (served.throughput() != cold.throughput) ++out.mismatches;
  }
  out.cold_seconds_per_plan = cold_seconds / static_cast<double>(samples);
  return out;
}

void report(benchmark::State& state, const WorkloadResult& r) {
  const double served = static_cast<double>(r.requests);
  const double plans_per_sec = served / r.serve_seconds;
  const double cold_plans_per_sec = 1.0 / r.cold_seconds_per_plan;
  state.counters["plans_per_sec"] = plans_per_sec;
  state.counters["cold_plans_per_sec"] = cold_plans_per_sec;
  state.counters["speedup"] = plans_per_sec / cold_plans_per_sec;
  state.counters["hit_rate"] = r.metrics.value("service_hit_rate");
  state.counters["exact_hits"] = r.metrics.value("service_exact_hits");
  state.counters["warm_hits"] = r.metrics.value("service_warm_hits");
  state.counters["cold_solves"] = r.metrics.value("service_cold_solves");
  state.counters["dedup"] = r.metrics.value("service_deduplicated");
  state.counters["p99_ms"] = r.metrics.value("service_latency_p99_ms");
  state.counters["mismatches"] = r.metrics.value("service_failed") +
                                 static_cast<double>(r.mismatches);
}

void BM_ServiceThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t kVariants = 48;
  const std::size_t kRequests = 1008;
  const std::size_t kClients = 8;
  const auto variants = drifting_variants(42, n, n / 2, kVariants);
  for (auto _ : state) {
    WorkloadResult r = run_workload(variants, kRequests, kClients,
                                    /*workers=*/4);
    report(state, r);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(r.requests));
  }
}
BENCHMARK(BM_ServiceThroughput)->Arg(32)->Iterations(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Small fast configuration for CI bench-smoke runs.
void BM_ServiceThroughputSmoke(benchmark::State& state) {
  const auto variants = drifting_variants(7, 10, 4, 8);
  for (auto _ : state) {
    WorkloadResult r = run_workload(variants, 96, 4, /*workers=*/2);
    report(state, r);
  }
}
BENCHMARK(BM_ServiceThroughputSmoke)->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
