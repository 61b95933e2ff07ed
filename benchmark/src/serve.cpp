// drift_serve: an open loop of planning requests against a PlanService.
//
// Independent clients ask for plans of a slowly drifting platform, so
// requests arrive on a fixed schedule (200/s) whatever the service does:
// one generator thread submits, the service runs 2 workers. The mix, in a
// fixed pattern so the tail does not depend on where random arrivals or a
// random scatter/reduce draw cluster:
//   * 3 of 4 requests scatter (n=32 dense, 16 targets) over chained
//     one-edge +-5% drift variants, the variant advancing every 0.3 s;
//   * 1 of 4 reduce (n=12 dense, 5 participants) over chained variants,
//     advancing every 0.6 s;
//   * every 25th request a scatter platform the service has not seen (a
//     cold solve), from a pinned pool of 40 in a seeded order.
// So the hot path (request digest + exact cache hit) serves ~88% of the
// requests and warm dual-simplex re-solves, deduplication and the cold lane
// the rest. Latency runs from the request's DUE time:
// (submit - due) + PlanResult::latency_ms. Timing from when a collector
// reaches the future would charge collection order to the service.
//
// A run replays the same requests in 4 passes of a quarter of the time,
// each against a fresh service, and a request's latency is its fastest
// pass — the open-loop form of the closed loops' fastest pass per pool
// item: a shared host slows by up to 1.4x for seconds at a time, and over
// sets of ten single 20 s passes the p50 spread 0.07-0.20 and the p95
// 0.13-0.29 (quartile distance over the median).

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/steady_state.h"
#include "digests.h"
#include "instances.h"
#include "loop.h"
#include "service/plan_service.h"

namespace bench {
namespace {

using namespace ssco;

constexpr double kRatePerSec = 200.0;
constexpr double kLimitMs = 100.0;  // goodput latency limit
constexpr std::size_t kPasses = 4;
constexpr std::size_t kScatterStep = 60, kReduceStep = 120;  // requests
constexpr std::size_t kColdEvery = 25;
// Cold-solve cross-check stride; coprime to kColdEvery so the sample
// covers cold and drifted requests alike.
constexpr std::size_t kCheckEvery = 49;
// Generator seeds of the two drifting platforms and of their drift steps.
// The warm re-solve cost decides the tail and differs 5x between random
// platforms and 2x between random drift walks on one platform, so both are
// pinned. So is the cold pool: with seed-drawn cold platforms the p99's
// spread over ten seeds was 0.11, pinned 0.06. --seed draws the cold
// pool's order.
constexpr std::uint64_t kScatterBase = 1001, kScatterDrift = 1002;
constexpr std::uint64_t kReduceBase = 1003, kReduceDrift = 1004;
constexpr std::uint64_t kColdBase = 5000;
constexpr std::size_t kColdPool = 40;  // the cold requests of a 5 s pass
// Requests covered by the pinned digests (one pass of a 20 s run).
constexpr std::size_t kDigestRequests = 1000;

struct Inputs {
  std::vector<platform::ScatterInstance> scatter;  // drift chain
  std::vector<platform::ReduceInstance> reduce;    // drift chain
  std::vector<platform::ScatterInstance> cold;     // one per cold request
  /// Per request: 's' (scatter variant), 'r' (reduce variant), 'c' (cold).
  std::string kind;

  [[nodiscard]] service::PlanRequest request(std::size_t i) const {
    service::PlanRequest req;
    if (kind[i] == 'c') {
      req.instance = cold[i / kColdEvery];
    } else if (kind[i] == 's') {
      req.instance = scatter[(i / kScatterStep) % scatter.size()];
    } else {
      req.instance = reduce[(i / kReduceStep) % reduce.size()];
    }
    return req;
  }
};

/// The inputs of `requests` requests: drift chains just long enough for
/// them, and one cold platform per cold request.
Inputs make_inputs(std::uint64_t seed, std::size_t requests) {
  Inputs in;
  in.scatter = drift_chain(dense_scatter(kScatterBase, 32, 16), kScatterDrift,
                           requests / kScatterStep + 1);
  in.reduce = drift_chain(random_reduce(kReduceBase, 12, 5, /*sparse=*/false),
                          kReduceDrift, requests / kReduceStep + 1);
  const std::vector<std::size_t> cold_order = visit_order(kColdPool, seed);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i % kColdEvery == kColdEvery - 1) {
      in.kind += 'c';
      const std::size_t k = cold_order[in.cold.size() % kColdPool];
      in.cold.push_back(dense_scatter(kColdBase + k, 32, 16));
    } else {
      in.kind += i % 4 == 3 ? 'r' : 's';
    }
  }
  return in;
}

/// What one request observed.
struct Served {
  double late_ms = 0.0;     // submit start - due
  double latency_ms = 0.0;  // due -> fulfilled
  bool ok = false;          // certified, not degraded
  service::PlanResult::Source source = service::PlanResult::Source::kColdSolve;
  std::string throughput;
};

struct PassResult {
  std::vector<Served> served;
  obs::Snapshot service;  // the service's own registry at the end
  double elapsed_s = 0.0;  // first due time to last fulfilment
};

/// One open-loop pass over requests [0, n) against a fresh service.
/// `ledger` (traced pass) receives one span tree per request.
PassResult open_loop(Outcome& out, const Config& cfg, const Inputs& in,
                     std::size_t n, Ledger* ledger) {
  service::PlanServiceOptions opts;
  opts.num_workers = 2;
  opts.solve_threads = 1;  // generator + 2 workers + waiting main <= 4 cores
  service::PlanService svc(opts);

  PassResult pr;
  pr.served.resize(n);
  std::vector<std::future<service::PlanResult>> futures(n);
  std::vector<std::string> submit_error(n);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRatePerSec));
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const std::uint64_t t0_ns = obs::Trace::enabled()
                                  ? obs::Trace::now_ns() + 20'000'000
                                  : 0;
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      service::PlanRequest req = in.request(i);  // built before it is due
      const auto due = t0 + period * static_cast<long>(i);
      // Sleep to 1 ms before the due time, then spin: a thread woken from
      // sleep runs late by a scheduler-dependent amount and on a cold
      // cache, which the hit path (~0.4 ms) would report as its own time.
      std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
      while (Clock::now() < due) {
      }
      pr.served[i].late_ms = ms_between(due, Clock::now());
      try {
        futures[i] = svc.submit(std::move(req));
      } catch (const std::exception& e) {
        submit_error[i] = e.what();  // shed or shut down: a miss
      }
    }
  });
  generator.join();

  for (std::size_t i = 0; i < n; ++i) {
    Served& s = pr.served[i];
    if (!submit_error[i].empty()) {
      record_failure(out, cfg, i, "submit", submit_error[i]);
      continue;
    }
    try {
      const service::PlanResult r = futures[i].get();
      s.latency_ms = s.late_ms + r.latency_ms;
      s.source = r.source;
      s.throughput = r.throughput().to_string();
      s.ok = r.payload->certified() && !r.degraded;
      if (!s.ok) {
        record_failure(out, cfg, i, "serve",
                       r.degraded ? "degraded plan served" : "not certified");
      }
    } catch (const std::exception& e) {
      record_failure(out, cfg, i, "serve", e.what());
    }
    pr.elapsed_s = std::max(pr.elapsed_s, static_cast<double>(i) / kRatePerSec +
                                              s.latency_ms / 1e3);
    if (ledger != nullptr) {
      const auto due_ns = t0_ns + static_cast<std::uint64_t>(
                                      static_cast<double>(i) * 1e9 / kRatePerSec);
      const auto submit_ns = due_ns + static_cast<std::uint64_t>(s.late_ms * 1e6);
      const auto done_ns = due_ns + static_cast<std::uint64_t>(s.latency_ms * 1e6);
      const int root = ledger->add("request", -1, due_ns, done_ns);
      ledger->add("bench.generator_late", root, due_ns, submit_ns);
      const char* layer =
          s.source == service::PlanResult::Source::kExactHit  ? "service.hit"
          : s.source == service::PlanResult::Source::kWarmHit ? "service.warm"
          : s.source == service::PlanResult::Source::kStale   ? "service.stale"
                                                              : "service.cold";
      ledger->add(layer, root, submit_ns, done_ns);
    }
  }
  pr.service = svc.metrics_snapshot();
  return pr;
}

/// Post-pass output check: every kCheckEvery-th request is solved cold,
/// directly, and its exact throughput must equal the served one. Returns
/// the checked throughputs of the first kDigestRequests requests.
std::string cross_check(Outcome& out, const Config& cfg, const Inputs& in,
                        const std::vector<Served>& served) {
  Digest tps;
  for (std::size_t i = 0; i < served.size(); i += kCheckEvery) {
    if (!served[i].ok) continue;
    try {
      const service::PlanRequest req = in.request(i);
      const std::string cold = std::visit(
          [](const auto& inst) -> std::string {
            using T = std::decay_t<decltype(inst)>;
            if constexpr (std::is_same_v<T, platform::ReduceInstance>) {
              return core::optimize_reduce(inst).solution.throughput.to_string();
            } else if constexpr (std::is_same_v<T, platform::ScatterInstance>) {
              return core::optimize_scatter(inst).flow.throughput.to_string();
            } else {
              throw std::logic_error("no gossip requests in this workload");
            }
          },
          req.instance);
      if (cold != served[i].throughput) {
        record_failure(out, cfg, i, "cross_check",
                       "served throughput " + served[i].throughput +
                           " but a cold solve gives " + cold);
      }
      if (i < kDigestRequests) tps.add(cold);
    } catch (const std::exception& e) {
      record_failure(out, cfg, i, "cross_check", e.what());
    }
  }
  return tps.hex();
}

/// Every pass serves the same requests, so the same exact throughputs as
/// the first pass.
void check_same(Outcome& out, const Config& cfg, const PassResult& first,
                const PassResult& pass) {
  for (std::size_t i = 0; i < pass.served.size(); ++i) {
    const Served& a = first.served[i];
    const Served& b = pass.served[i];
    if (a.ok && b.ok && a.throughput != b.throughput) {
      record_failure(out, cfg, i, "cross_check",
                     "served throughput " + b.throughput + " but " +
                         a.throughput + " on the first pass");
    }
  }
}

double mean_latency(const std::vector<PassResult>& passes) {
  std::vector<double> v;
  for (const PassResult& pass : passes) {
    for (const Served& s : pass.served) v.push_back(s.latency_ms);
  }
  return mean(v);
}

}  // namespace

Outcome run_drift_serve(const Config& cfg) {
  Outcome out;
  const auto per_pass =
      static_cast<std::size_t>(cfg.seconds / kPasses * kRatePerSec);
  if (per_pass == 0) throw std::invalid_argument("drift_serve needs --seconds >= 0.02");
  const bool comparable = comparable_run(cfg, /*seeded=*/true);
  SetupClock<Inputs> setup([&] {
    return make_inputs(cfg.seed,
                       comparable ? std::max(per_pass, kDigestRequests) : per_pass);
  });
  const Inputs& in = setup.inputs();
  Digest inputs;
  for (const auto& inst : in.scatter) inputs.add(inst);
  for (const auto& inst : in.reduce) inputs.add(inst);
  for (std::size_t i = 0; i < std::min(kDigestRequests, in.kind.size()); ++i) {
    inputs.add(std::string(1, in.kind[i]));
    if (in.kind[i] == 'c') inputs.add(in.cold[i / kColdEvery]);
  }
  check_inputs(cfg, comparable, inputs.hex());

  // Traced: the first half of the passes untraced, the second half traced.
  // Untraced, the set-up rounds run between the passes.
  const std::size_t plain_passes = cfg.traced ? kPasses / 2 : kPasses;
  std::vector<PassResult> plain;
  for (std::size_t p = 0; p < plain_passes; ++p) {
    if (!cfg.traced) setup.tick();
    plain.push_back(open_loop(out, cfg, in, per_pass, nullptr));
    check_same(out, cfg, plain.front(), plain.back());
  }
  out.attempted = plain.size() * per_pass;
  const std::string tps = cross_check(out, cfg, in, plain.front().served);
  if (!cfg.traced) {
    setup.tick();
    std::vector<double> best(per_pass, std::numeric_limits<double>::infinity());
    double good = 0.0, elapsed_s = 0.0;
    for (const PassResult& pass : plain) {
      for (std::size_t i = 0; i < per_pass; ++i) {
        const Served& s = pass.served[i];
        if (!s.ok) continue;  // a miss; failures are counted in open_loop
        best[i] = std::min(best[i], s.latency_ms);
        good += s.latency_ms <= kLimitMs ? 1.0 : 0.0;
      }
      elapsed_s += pass.elapsed_s;
    }
    std::erase_if(best, [](double ms) { return std::isinf(ms); });
    out.metrics["setup_s"] = setup.seconds();
    out.metrics["latency_ms_p50"] = quantile(best, 0.5);
    // p99 (10 requests beyond it in a 5 s pass): p95 falls on the border
    // between the warm re-solves and the cold solves, so which of the two
    // it reads shifted with the mix (its spread over seeds was 3x p99's).
    out.metrics["latency_ms_tail"] = quantile(best, 0.99);
    out.metrics["goodput_per_s"] = good / elapsed_s;
  } else {
    std::vector<PassResult> traced;
    RegistryDelta lp;
    run_traced(out, cfg, mean_latency(plain), [&](Ledger& ledger) {
      while (traced.size() < kPasses - plain_passes) {
        traced.push_back(open_loop(out, cfg, in, per_pass, &ledger));
        check_same(out, cfg, plain.front(), traced.back());
      }
      return mean_latency(traced);
    });
    lp.stop();
    const std::size_t n = traced.size() * per_pass;
    out.attempted += n;
    add_lp_metrics(out, lp, static_cast<double>(n), 0.0);

    std::vector<double> late, hit, warm, cold;
    double in_service = 0.0;
    for (const PassResult& pass : traced) {
      for (const Served& s : pass.served) {
        late.push_back(s.late_ms);
        in_service += s.latency_ms - s.late_ms;
        using Source = service::PlanResult::Source;
        (s.source == Source::kExactHit  ? hit
         : s.source == Source::kWarmHit ? warm
                                        : cold)
            .push_back(s.latency_ms - s.late_ms);
      }
    }
    // Each pass had its own service: sum its counters over the passes.
    auto total = [&](const char* counter) {
      double sum = 0.0;
      for (const PassResult& pass : traced) sum += pass.service.value(counter);
      return sum;
    };
    const double submitted = total("service_submitted");
    auto share = [&](const char* counter) {
      return submitted > 0.0 ? total(counter) / submitted : 0.0;
    };
    double depth = 0.0;
    for (const PassResult& pass : traced) {
      depth = std::max(depth, pass.service.value("service_max_queue_depth"));
    }
    out.metrics["service.submit_ms"] = in_service / static_cast<double>(n);
    out.metrics["service.hit_ms_p50"] = quantile(hit, 0.5);
    out.metrics["service.warm_ms_p50"] = quantile(warm, 0.5);
    out.metrics["service.cold_ms_p50"] = quantile(cold, 0.5);
    out.metrics["service.queue_depth_max"] = depth;
    out.metrics["service.exact_hit_frac"] = share("service_exact_hits");
    out.metrics["service.warm_hit_frac"] = share("service_warm_hits");
    out.metrics["service.cold_frac"] = share("service_cold_solves");
    out.metrics["service.dedup_frac"] = share("service_deduplicated");
    out.metrics["service.gen_late_ms_p99"] = quantile(late, 0.99);
    out.metrics["service.failed"] = total("service_failed");

    // The request digest runs inside submit(); time it beside the request
    // path, once per distinct platform of the pass.
    std::vector<service::PlanRequest> distinct;
    for (const auto& inst : in.scatter) distinct.emplace_back().instance = inst;
    for (const auto& inst : in.reduce) distinct.emplace_back().instance = inst;
    const auto t0 = Clock::now();
    for (const auto& req : distinct) (void)service::digest(req);
    out.metrics["platform.digest_ms"] =
        ms_between(t0, Clock::now()) / static_cast<double>(distinct.size());
  }
  check_throughputs(out, cfg, comparable && per_pass >= kDigestRequests, tps);
  return out;
}

}  // namespace bench
