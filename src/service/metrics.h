#pragma once
// Observability surface of the plan service.
//
// The service counters live in an obs::Registry owned by the PlanService;
// related counters are bumped inside one Registry::Batch, and
// metrics_snapshot() reads a single coherent Snapshot, so cross-counter
// invariants like `cache_hits + cache_misses == cache_lookups` hold in
// every snapshot. That snapshot is the only record: the human tables below
// render straight from it (plus the per-shard cache stats, read under their
// shard locks), so a table row and the Prometheus/JSON line of the same
// name always show the same value.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats.h"

namespace ssco::service {

/// The one nearest-rank quantile definition, shared with the executor's
/// summaries and the registry histograms (obs/stats.h) — the PR-7
/// off-by-one lived in a duplicated copy of exactly this function.
using obs::nearest_rank_index;

/// Bounded latency sample store with deterministic replacement: fills to
/// capacity, then overwrites in strict arrival order (the slot cursor wraps
/// from capacity-1 back to 0), so after k > capacity records the reservoir
/// holds exactly the most recent `capacity` samples. Not synchronized —
/// callers bring their own lock.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(double ms) {
    if (samples_.size() < capacity_) {
      samples_.push_back(ms);
      return;
    }
    samples_[next_] = ms;
    next_ = (next_ + 1) % capacity_;
  }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Samples in storage order (unsorted).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<double> samples_;
};

/// One cache shard's view (see plan_cache.h).
struct CacheShardMetrics {
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::size_t exact_hits = 0;
  std::size_t warm_hits = 0;    // warm candidates handed out
  std::size_t misses = 0;       // exact lookups that found nothing
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t expirations = 0;    // TTL-expired on an exact lookup
  std::size_t invalidations = 0;  // drift-invalidated entries
};

/// Renders the shard table and the service totals of `snapshot` (a
/// PlanService::metrics_snapshot()) as io/report tables for benches and
/// examples; `shards` is PlanService::shard_metrics().
[[nodiscard]] std::string format_metrics(
    const obs::Snapshot& snapshot,
    const std::vector<CacheShardMetrics>& shards);

/// Renders the solver_* entries of `snapshot` (taken from
/// obs::Registry::global(), where every solve lands) — solve/pivot
/// counters, colgen totals, and the FTRAN/BTRAN/pricing/factorization
/// wall-clock split — as an io/report table.
[[nodiscard]] std::string format_solver_stats(const obs::Snapshot& snapshot);

}  // namespace ssco::service
