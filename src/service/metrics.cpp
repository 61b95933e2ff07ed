#include "service/metrics.h"

#include <cstdint>
#include <span>
#include <sstream>
#include <string_view>

#include "io/report.h"
#include "io/table.h"

namespace ssco::service {

namespace {

std::string as_count(const obs::Snapshot& snap, std::string_view name) {
  return std::to_string(static_cast<std::uint64_t>(snap.value(name)));
}

std::string as_millis(const obs::Snapshot& snap, std::string_view name) {
  return io::millis(static_cast<std::uint64_t>(snap.value(name)));
}

std::string as_percent(const obs::Snapshot& snap, std::string_view name) {
  return io::percent(snap.value(name));
}

std::string as_ms(const obs::Snapshot& snap, std::string_view name) {
  return io::fixed(snap.value(name), 3) + " ms";
}

std::string as_mb_per_sec(const obs::Snapshot& snap, std::string_view name) {
  return io::fixed(snap.value(name) / 1e6, 2) + " MB/s";
}

using Render = std::string (*)(const obs::Snapshot&, std::string_view);

struct Row {
  const char* label;
  const char* name;
  Render render = as_count;
};

/// One "metric | value" table over `rows`, each read from `snap` by name.
std::string table_of(const obs::Snapshot& snap, std::span<const Row> rows) {
  io::Table table({"metric", "value"});
  for (const Row& row : rows) {
    table.add_row({row.label, row.render(snap, row.name)});
  }
  return table.to_string();
}

constexpr Row kServiceRows[] = {
    {"submitted", "service_submitted"},
    {"accepted", "service_accepted"},
    {"shed (overloaded)", "service_shed"},
    {"deadline misses", "service_deadline_misses"},
    {"degraded served", "service_degraded_served"},
    {"deduplicated", "service_deduplicated"},
    {"exact hits", "service_exact_hits"},
    {"warm hits", "service_warm_hits"},
    {"cold solves", "service_cold_solves"},
    {"failed", "service_failed"},
    {"hit rate", "service_hit_rate", as_percent},
    {"queue depth", "service_queue_depth"},
    {"max queue depth", "service_max_queue_depth"},
    {"latency p50", "service_latency_p50_ms", as_ms},
    {"latency p90", "service_latency_p90_ms", as_ms},
    {"latency p99", "service_latency_p99_ms", as_ms},
};

constexpr Row kDataPlaneRows[] = {
    {"executions", "service_executions"},
    {"drift re-solves", "service_drift_resolves"},
    {"one-port violations", "exec_oneport_violations"},
    {"delivery errors", "exec_delivery_errors"},
    {"faults injected", "exec_faults_injected"},
    {"retransmits", "exec_retransmits"},
    {"last efficiency", "exec_last_efficiency", as_percent},
    {"last achieved", "exec_last_achieved_bytes_per_sec", as_mb_per_sec},
    {"last certified", "exec_last_certified_bytes_per_sec", as_mb_per_sec},
};

constexpr Row kSolverRows[] = {
    {"solves", "solver_solves"},
    {"float pivots", "solver_float_pivots"},
    {"exact pivots", "solver_exact_pivots"},
    {"warm attempts", "solver_warm_attempts"},
    {"warm solves", "solver_warm_solves"},
    {"exact fallbacks", "solver_exact_fallbacks"},
    {"colgen solves", "solver_colgen_solves"},
    {"colgen rounds", "solver_colgen_rounds"},
    {"colgen columns generated", "solver_colgen_columns_generated"},
    {"ftran time", "solver_ftran_ns", as_millis},
    {"btran time", "solver_btran_ns", as_millis},
    {"pricing time", "solver_pricing_ns", as_millis},
    {"factorization time", "solver_factor_ns", as_millis},
    {"certify time", "solver_certify_ns", as_millis},
    {"pricing sweep time", "solver_pricing_sweep_ns", as_millis},
};

}  // namespace

std::string format_metrics(const obs::Snapshot& snapshot,
                           const std::vector<CacheShardMetrics>& shards) {
  std::ostringstream os;
  os << io::banner("plan service");

  io::Table shard_table(
      {"shard", "size", "cap", "exact", "warm", "miss", "evict"});
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const CacheShardMetrics& s = shards[i];
    shard_table.add_row({std::to_string(i), std::to_string(s.size),
                         std::to_string(s.capacity),
                         std::to_string(s.exact_hits),
                         std::to_string(s.warm_hits), std::to_string(s.misses),
                         std::to_string(s.evictions)});
  }
  os << shard_table.to_string() << "\n";
  os << table_of(snapshot, kServiceRows);
  if (snapshot.value("service_executions") > 0) {
    os << "\n" << table_of(snapshot, kDataPlaneRows);
  }
  return os.str();
}

std::string format_solver_stats(const obs::Snapshot& snapshot) {
  return io::banner("exact solver") + table_of(snapshot, kSolverRows);
}

}  // namespace ssco::service
