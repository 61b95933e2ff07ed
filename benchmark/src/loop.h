#pragma once
// Set-up timing, closed-loop driving and the traced second half, shared by
// the workloads (drift_serve runs its own open loop).

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/schedule.h"
#include "exec/program.h"
#include "instances.h"
#include "obs/trace.h"

namespace bench {

struct Sample {
  std::size_t item = 0;  // pool index
  double ms = 0.0;       // request wall time
  bool ok = false;       // passed every output check
};

/// Size counters of the schedules and ExecPrograms a pass produced; they
/// explain compile and simulation cost.
struct PlanSize {
  double schedules = 0, activities = 0, period_digits = 0;
  double programs = 0, transfers = 0, chunks = 0, bytes = 0;

  void add(const ssco::core::PeriodicSchedule& s) {
    ++schedules;
    activities += static_cast<double>(s.comms.size() + s.comps.size());
    period_digits += static_cast<double>(s.period.num().to_string().size());
  }
  /// Returns the program's chunks per period (transfer chunks + compute
  /// slices).
  double add(const ssco::exec::ExecProgram& p) {
    ++programs;
    transfers += static_cast<double>(p.transfers.size());
    double per_period = 0;
    for (const ssco::exec::TransferTemplate& t : p.transfers) {
      per_period += static_cast<double>(t.chunks.size());
      bytes += static_cast<double>(t.wire_bytes);
    }
    for (const ssco::exec::ComputeTemplate& c : p.comps) {
      per_period += static_cast<double>(c.slices.size());
    }
    chunks += per_period;
    return per_period;
  }
  /// Means per schedule / per program.
  void report(Outcome& out) const {
    auto per = [](double total, double count) {
      return count > 0.0 ? total / count : 0.0;
    };
    out.metrics["core.activities"] = per(activities, schedules);
    out.metrics["core.period_digits"] = per(period_digits, schedules);
    out.metrics["exec.transfers"] = per(transfers, programs);
    out.metrics["exec.chunks_per_period"] = per(chunks, programs);
    out.metrics["exec.bytes_per_period"] = per(bytes, programs);
  }
};

/// Times a workload's set-up (making its inputs) in rounds: one at start-up
/// (at least 9 set-ups and 0.1 s; the last result is the run's inputs),
/// then at most one per 0.5 s through tick() (at least one set-up and
/// 10 ms; results dropped), which the workloads call while they measure.
/// A round reads the median of its set-ups. A shared host's CPU speed
/// shifts by up to 1.4x for seconds at a time: set-ups timed only at
/// start-up would all fall in one such phase, and setup_s would jump
/// between two values from run to run.
template <typename T>
class SetupClock {
 public:
  explicit SetupClock(std::function<T()> setup) : setup_(std::move(setup)) {
    round(9, 100.0, inputs_);
  }

  /// The inputs the workload runs on.
  [[nodiscard]] T& inputs() { return inputs_; }

  /// One more round if 0.5 s passed since the last.
  void tick() {
    if (ms_between(last_, Clock::now()) < 500.0) return;
    T dropped;
    round(1, 10.0, dropped);
  }

  /// setup_s: the median round, seconds.
  [[nodiscard]] double seconds() const { return quantile(rounds_, 0.5); }

 private:
  void round(std::size_t min_runs, double min_ms, T& into) {
    std::vector<double> ms;
    double total = 0.0;
    while (ms.size() < min_runs || (total < min_ms && ms.size() < 1000)) {
      const auto t0 = Clock::now();
      T made = setup_();
      ms.push_back(ms_between(t0, Clock::now()));
      total += ms.back();
      into = std::move(made);
    }
    rounds_.push_back(quantile(ms, 0.5) / 1e3);
    last_ = Clock::now();
  }

  std::function<T()> setup_;
  T inputs_;
  std::vector<double> rounds_;
  Clock::time_point last_;
};

/// Pool visiting order: a seeded permutation (the same seed visits the
/// pool in the same order).
inline std::vector<std::size_t> visit_order(std::size_t pool,
                                            std::uint64_t seed) {
  std::vector<std::size_t> order(pool);
  for (std::size_t i = 0; i < pool; ++i) order[i] = i;
  Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  rng.shuffle(order);
  return order;
}

/// One client, closed loop: request j serves pool item order[j % pool],
/// `request(item)` returning its Sample.
/// With `count` == 0 it runs until `seconds` have passed and the pool was
/// visited at least once; otherwise exactly `count` requests.
template <typename Request>
std::vector<Sample> closed_loop(const std::vector<std::size_t>& order,
                                double seconds, std::size_t count,
                                Request&& request) {
  std::vector<Sample> samples;
  const auto t0 = Clock::now();
  for (std::size_t j = 0;; ++j) {
    if (count > 0 ? j >= count
                  : j >= order.size() &&
                        ms_between(t0, Clock::now()) >= seconds * 1e3) {
      break;
    }
    samples.push_back(request(order[j % order.size()]));
    samples.back().item = order[j % order.size()];
  }
  return samples;
}

/// End-to-end metrics of a closed loop over a pool visited several times.
/// Each pool item contributes its fastest checked pass (min-of-N: other
/// tenants of the machine only ever add time, in bursts shorter than a
/// run); the median and `tail_q` quantile are taken over the items, and
/// goodput is items planned per second at those times.
inline void closed_loop_metrics(Outcome& out, const std::vector<Sample>& s,
                                double tail_q) {
  std::map<std::size_t, double> best;
  for (const Sample& x : s) {
    if (!x.ok) continue;
    auto [it, fresh] = best.emplace(x.item, x.ms);
    if (!fresh) it->second = std::min(it->second, x.ms);
  }
  std::vector<double> ms;
  double total_ms = 0.0;
  for (const auto& [item, t] : best) {
    ms.push_back(t);
    total_ms += t;
  }
  out.metrics["latency_ms_p50"] = quantile(ms, 0.5);
  out.metrics["latency_ms_tail"] = quantile(ms, tail_q);
  out.metrics["goodput_per_s"] =
      total_ms > 0.0 ? static_cast<double>(ms.size()) / (total_ms / 1e3) : 0.0;
}

inline double mean_ms(const std::vector<Sample>& s) {
  std::vector<double> ms;
  for (const Sample& x : s) ms.push_back(x.ms);
  return mean(ms);
}

/// Runs `traced_pass` (which returns its mean request time) with obs::Trace
/// on and a fresh ledger, writes the Chrome export to
/// trace_<workload>.json, adds the bench.* metrics and returns the ledger's
/// self time per layer (ms, summed over the pass). `untraced_ms` is the
/// mean request time of the untraced half over the same requests.
template <typename Pass>
std::map<std::string, double> run_traced(Outcome& out, const Config& cfg,
                                         double untraced_ms,
                                         Pass&& traced_pass) {
  ssco::obs::Trace::enable();
  Ledger ledger;
  const double traced_ms = traced_pass(ledger);
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
  if (!ssco::obs::Trace::save(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  out.metrics["bench.trace_dropped"] =
      static_cast<double>(ssco::obs::Trace::dropped());
  ssco::obs::Trace::disable();
  out.metrics["bench.attributed_frac"] = ledger.attributed_frac();
  out.metrics["bench.trace_overhead_pct"] =
      untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms * 100.0 : 0.0;
  return ledger.self_ms();
}

}  // namespace bench
