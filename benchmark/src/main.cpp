// ssco_bench: the end-to-end benchmark program.
//
//   ssco_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//              [--out-dir D]
//
// W is one of reduce_cold, scatter_cold, drift_serve, exec_drift, or all.
// --smoke runs every workload at 1/10 of its size and of --seconds.
// Prints `name value unit` per metric and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
// when the run completed (check "correct"), 2 on bad arguments, 3 when the
// pinned workload inputs changed.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using bench::Config;
using bench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric tables of BENCHMARK.json, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"goodput_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"lp.ftran_ms", "ms"},
    {"lp.btran_ms", "ms"},
    {"lp.factor_ms", "ms"},
    {"lp.pricing_ms", "ms"},
    {"lp.certify_ms", "ms"},
    {"lp.pricing_sweep_ms", "ms"},
    {"lp.other_ms", "ms"},
    {"lp.pivots", "count"},
    {"lp.exact_fallbacks", "count"},
    {"lp.factor_fill", "count"},
    {"lp.colgen_rounds", "count"},
    {"lp.columns_generated", "count"},
    {"lp.columns_materialized_frac", "ratio"},
    {"lp.rows_active_frac", "ratio"},
    {"lp.stab_rounds", "count"},
    {"lp.warm_solve_frac", "ratio"},
    {"core.solve_ms", "ms"},
    {"core.trees_ms", "ms"},
    {"core.schedule_ms", "ms"},
    {"core.trees", "count"},
    {"core.activities", "count"},
    {"core.period_digits", "digits"},
    {"exec.compile_ms", "ms"},
    {"exec.transfers", "count"},
    {"exec.chunks_per_period", "count"},
    {"exec.bytes_per_period", "bytes"},
    {"exec.infer_drift_ms", "ms"},
    {"exec.threaded_ms", "ms"},
    {"exec.efficiency_permille", "permille"},
    {"exec.threaded_efficiency_permille", "permille"},
    {"exec.faults", "count"},
    {"exec.throws", "count"},
    {"exec.oneport_violations", "count"},
    {"exec.delivery_errors", "count"},
    {"exec.over_bound_runs", "count"},
    {"sim.simulate_ms", "ms"},
    {"sim.chunk_steps", "count"},
    {"sim.chunk_steps_per_s", "1/s"},
    {"platform.digest_ms", "ms"},
    {"service.submit_ms", "ms"},
    {"service.hit_ms_p50", "ms"},
    {"service.warm_ms_p50", "ms"},
    {"service.cold_ms_p50", "ms"},
    {"service.queue_depth_max", "count"},
    {"service.exact_hit_frac", "ratio"},
    {"service.warm_hit_frac", "ratio"},
    {"service.cold_frac", "ratio"},
    {"service.dedup_frac", "ratio"},
    {"service.gen_late_ms_p99", "ms"},
    {"service.failed", "count"},
    {"bench.attributed_frac", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.trace_dropped", "count"},
    {"bench.fail_frac", "ratio"},
    {"bench.requests", "count"},
};

struct Workload {
  const char* name;
  Outcome (*run)(const Config&);
};

constexpr Workload kWorkloads[] = {
    {"reduce_cold", bench::run_reduce_cold},
    {"scatter_cold", bench::run_scatter_cold},
    {"drift_serve", bench::run_drift_serve},
    {"exec_drift", bench::run_exec_drift},
};

struct Row {
  std::string name;
  double value;
  const char* unit;
};

/// Shortest text that reads back as the same double, always written as a
/// JSON float: with a fraction or an exponent, never as a bare integer —
/// plain to_chars prints 2.26e21 as a 22-digit integer, which 64-bit
/// integer JSON parsers reject.
std::string number(double v) {
  char buf[64];
  const bool huge = std::fabs(v) >= 0x1p53;
  const auto r = huge ? std::to_chars(buf, buf + sizeof buf, v,
                                      std::chars_format::scientific)
                      : std::to_chars(buf, buf + sizeof buf, v);
  std::string s(buf, r.ptr);
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ssco_bench: %s\nusage: ssco_bench --workload "
               "reduce_cold|scatter_cold|drift_serve|exec_drift|all "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir D]\n",
               why);
  std::exit(2);
}

/// Reported metrics of one run, in table order: the end-to-end set, or the
/// per-layer set (absent layers read 0 — the layer did no work there).
std::vector<Row> report(const Config& cfg, Outcome& out) {
  out.metrics["bench.fail_frac"] =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0;
  out.metrics["bench.requests"] = static_cast<double>(out.attempted);
  std::vector<Row> rows;
  auto emit = [&](const auto& table, bool required) {
    for (const MetricSpec& m : table) {
      auto it = out.metrics.find(m.name);
      if (it == out.metrics.end() && required) {
        std::fprintf(stderr, "ssco_bench: %s did not report %s\n",
                     cfg.workload.c_str(), m.name);
        std::exit(1);
      }
      double v = it == out.metrics.end() ? 0.0 : it->second;
      if (!std::isfinite(v)) {
        std::fprintf(stderr, "ssco_bench: %s reported a non-finite %s\n",
                     cfg.workload.c_str(), m.name);
        out.correct = false;
        v = 0.0;
      }
      rows.push_back({m.name, v, m.unit});
    }
  };
  if (cfg.traced) {
    emit(kPerLayer, false);
  } else {
    emit(kEndToEnd, true);
  }
  return rows;
}

std::string json_line(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<Row>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.workload = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.traced = v == "1";
      } else if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--out-dir") {
        cfg.out_dir = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 3600.0)) {
    usage("--seconds must be in (0, 3600]");
  }
  if (cfg.smoke) cfg.seconds /= 10;

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == "all" || cfg.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) usage(("unknown workload " + cfg.workload).c_str());

  bool all_correct = true;
  std::size_t attempted = 0, failed = 0;
  std::vector<Row> combined;
  for (const Workload* w : selected) {
    Config run = cfg;
    run.workload = w->name;
    Outcome out = w->run(run);
    const auto rows = report(run, out);
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
                "attempted=%zu failed=%zu correct=%s\n",
                w->name, static_cast<unsigned long long>(run.seed), run.seconds,
                run.traced ? 1 : 0, run.smoke ? 1 : 0, out.attempted,
                out.failed, out.correct ? "true" : "false");
    for (const Row& r : rows) {
      std::printf("%s %s %s\n", r.name.c_str(), number(r.value).c_str(), r.unit);
      combined.push_back({std::string(w->name) + "/" + r.name, r.value, r.unit});
    }
    std::printf("%s\n",
                json_line(out.correct, out.attempted, out.failed, rows).c_str());
    std::fflush(stdout);
    all_correct = all_correct && out.correct;
    attempted += out.attempted;
    failed += out.failed;
  }
  if (selected.size() > 1) {
    std::printf("%s\n", json_line(all_correct, attempted, failed, combined).c_str());
  }
  return 0;
}
