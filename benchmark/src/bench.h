#pragma once
// Shared vocabulary of ssco_bench: run configuration, the outcome
// a workload reports, failure accounting and registry deltas.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "obs/metrics.h"

namespace bench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  /// Traced run: half the time untraced, then the same requests traced;
  /// reports the per-layer metrics instead of the end-to-end ones.
  bool traced = false;
  /// 1/10-size workloads, for a quick check of the benchmark itself.
  bool smoke = false;
  /// Where trace_<workload>.json goes.
  std::string out_dir = ".";

  /// Scales a workload size down for --smoke (never below 1).
  [[nodiscard]] std::size_t size(std::size_t full) const {
    return smoke ? (full + 9) / 10 : full;
  }
};

/// The seed whose input and throughput digests are pinned in digests.h.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// What one workload run reports. `correct` is false when any output check
/// failed; `failed` counts failed operations against `attempted`. Metric
/// units live in the table in main.cpp.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;
};

/// Counts one failed operation and prints its one-line repro.
inline void record_failure(Outcome& out, const Config& cfg,
                           std::size_t instance, const std::string& stage,
                           const std::string& error) {
  ++out.failed;
  out.correct = false;
  std::string oneline = error;
  for (char& c : oneline) {
    if (c == '\n') c = ' ';
  }
  std::printf("FAIL workload=%s seed=%llu instance=%zu stage=%s error=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              instance, stage.c_str(), oneline.c_str());
}

/// Linear-interpolated q-quantile (0 <= q <= 1); 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Difference of two snapshots of the process-wide registry (the solver's
/// solver_* counters land there).
class RegistryDelta {
 public:
  RegistryDelta() : before_(ssco::obs::Registry::global().snapshot()) {}
  void stop() { after_ = ssco::obs::Registry::global().snapshot(); }
  [[nodiscard]] double operator()(const char* name) const {
    return after_.value(name) - before_.value(name);
  }

 private:
  ssco::obs::Snapshot before_;
  ssco::obs::Snapshot after_;
};

/// Per-request LP phase split from solver_* registry deltas, ms. `solve_ms`
/// is the total time spent inside direct solve calls (0 when the solves ran
/// behind the plan service); lp.other_ms is what the phases leave
/// unattributed of it.
inline void add_lp_metrics(Outcome& out, const RegistryDelta& d,
                           double requests, double solve_ms) {
  const double per = requests > 0.0 ? 1.0 / requests : 0.0;
  const char* phases[][2] = {{"lp.ftran_ms", "solver_ftran_ns"},
                             {"lp.btran_ms", "solver_btran_ns"},
                             {"lp.factor_ms", "solver_factor_ns"},
                             {"lp.pricing_ms", "solver_pricing_ns"},
                             {"lp.certify_ms", "solver_certify_ns"},
                             {"lp.pricing_sweep_ms", "solver_pricing_sweep_ns"}};
  double phase_ms = 0.0;
  for (const auto& p : phases) {
    const double ms = d(p[1]) / 1e6 * per;
    phase_ms += ms;
    out.metrics[p[0]] = ms;
  }
  out.metrics["lp.other_ms"] = solve_ms > 0.0 ? solve_ms * per - phase_ms : 0.0;
  out.metrics["lp.pivots"] =
      (d("solver_float_pivots") + d("solver_exact_pivots")) * per;
  out.metrics["lp.exact_fallbacks"] = d("solver_exact_fallbacks") * per;
  const double solves = d("solver_solves");
  out.metrics["lp.warm_solve_frac"] =
      solves > 0.0 ? d("solver_warm_solves") / solves : 0.0;
}

/// Per-workload entry points (one file each).
Outcome run_reduce_cold(const Config& cfg);
Outcome run_scatter_cold(const Config& cfg);
Outcome run_drift_serve(const Config& cfg);
Outcome run_exec_drift(const Config& cfg);

}  // namespace bench
