#pragma once
// Deterministic fault injection for the execution data plane.
//
// A FaultPlan is a *seeded, declarative* description of everything that can
// go wrong on a platform while a compiled plan runs: a link collapsing to a
// fraction of its modeled rate at time t, a per-edge chunk-loss probability,
// bounded receive jitter, a node's CPU slowing down, or a link going dark
// for an interval. Both executors — the threaded backend (wall clock) and
// the discrete-event twin (virtual clock) — apply the SAME plan through the
// same admission-time hooks, so a fault scenario reproduces bit-identically
// on the event backend and statistically on the threaded one.
//
// Loss is decided by a counter-based hash, not a stateful RNG: the n-th
// send on edge e is lost iff hash(seed, e, n) < p. Each edge's sends are
// serialized by its source node's out-port (cyclic admission order), so the
// per-edge send sequence — and therefore every loss decision — is identical
// across backends, worker counts and repeats. Lost chunks burn wire time
// and tokens but deliver nothing; the engine retransmits under capped
// exponential backoff until max_retransmits, then fails typed.
//
// Fatal outcomes are reported as a structured ExecFault (typed code +
// edge/node + engine time) instead of a free-text string, so callers can
// branch on the failure class (degrade, shed, retry) without parsing.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace ssco::exec {

/// True when compiled under ASan/TSan/MSan: timing-sensitive knobs (the
/// engine watchdog, latency assertions in tests) scale themselves by this
/// instead of firing spuriously under 5-20x sanitizer slowdown.
inline constexpr bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

// ---------------------------------------------------------------- faults --

/// Why an execution run ended without a clean measurement window.
enum class FaultCode : std::uint8_t {
  kNone = 0,          ///< clean run
  kOneportStatic,     ///< the compiled schedule failed the static one-port check
  kNoSchedule,        ///< the schedule delivers no operations
  kDeadlock,          ///< event backend: no admissible step and no wake time
  kWatchdogStall,     ///< threaded backend: no progress for kWatchdogSeconds
  kDeadlineExceeded,  ///< ExecOptions::deadline_seconds fired mid-run
  kRetransmitLimit,   ///< a chunk was lost more than max_retransmits times
  kIdentityUnderflow, ///< message identity bookkeeping underflow (engine bug)
  kIncompleteWindow,  ///< execution ended before the measurement window closed
  kCountOverflow,     ///< the run's operation count does not fit 64 bits
  kWorkerException,   ///< threaded backend: a worker thread threw (e.g. bad_alloc)
};

[[nodiscard]] const char* fault_code_name(FaultCode code);

/// Structured fatal-fault report: typed code + where + when + free detail.
/// `code == FaultCode::kNone` means the run was clean.
struct ExecFault {
  FaultCode code = FaultCode::kNone;
  graph::EdgeId edge = graph::kInvalidId;  ///< faulting edge, if edge-scoped
  graph::NodeId node = graph::kInvalidId;  ///< faulting node, if node-scoped
  double at_seconds = 0.0;                 ///< engine time when it fired
  std::string message;                     ///< human detail, never parsed

  [[nodiscard]] bool ok() const { return code == FaultCode::kNone; }
  /// "watchdog-stall @ 1.204s (node 3): no progress for 20s" — for logs,
  /// bench SkipWithError and the report tables.
  [[nodiscard]] std::string to_string() const;
};

/// A link's rate collapses to `scale` times its actual rate at `at_seconds`
/// (engine time). scale must be in (0, 1]; 1 restores the modeled rate.
struct RateCollapse {
  graph::EdgeId edge = graph::kInvalidId;
  double at_seconds = 0.0;
  double scale = 1.0;
};

/// Every chunk sent on `edge` is independently lost with `probability`
/// (decided by the deterministic counter hash, see header comment).
struct ChunkLoss {
  graph::EdgeId edge = graph::kInvalidId;
  double probability = 0.0;  // in [0, 1]
};

/// Chunks arriving over `edge` are delayed by a deterministic bounded
/// amount in [0, max_seconds] (latency noise; steady-state throughput is
/// unaffected because store-and-forward absorbs it).
struct Jitter {
  graph::EdgeId edge = graph::kInvalidId;
  double max_seconds = 0.0;
};

/// `node`'s compute slows to `scale` times its speed at `at_seconds`.
struct NodeSlowdown {
  graph::NodeId node = graph::kInvalidId;
  double at_seconds = 0.0;
  double scale = 1.0;  // in (0, 1]
};

/// `edge` transmits nothing during [from_seconds, until_seconds): sends gate
/// until the blackout lifts (the engine keeps the wake time, so neither
/// backend deadlocks waiting it out).
struct Blackout {
  graph::EdgeId edge = graph::kInvalidId;
  double from_seconds = 0.0;
  double until_seconds = 0.0;
};

/// Seeded, declarative fault scenario, applied identically by both
/// backends. Empty plan (the default) = no fault hooks on the hot path.
struct FaultPlan {
  std::uint64_t seed = 0;

  std::vector<RateCollapse> rate_collapses;
  std::vector<ChunkLoss> losses;
  std::vector<Jitter> jitters;
  std::vector<NodeSlowdown> slowdowns;
  std::vector<Blackout> blackouts;

  // Retransmission policy for lost chunks: backoff doubles per consecutive
  // loss of the same port's head chunk, capped, until max_retransmits.
  double retransmit_backoff_seconds = 1e-4;
  double retransmit_backoff_cap_seconds = 1e-2;
  std::size_t max_retransmits = 64;

  [[nodiscard]] bool empty() const {
    return rate_collapses.empty() && losses.empty() && jitters.empty() &&
           slowdowns.empty() && blackouts.empty();
  }
};

/// Ready-made chaos scenario for the soak tests / bench / example: picks a
/// deterministic, seed-dependent mix of faults over `num_edges` edges and
/// `num_nodes` nodes, with event times expressed in multiples of
/// `period_seconds` so the scenario lands inside any run's window.
/// Severity grows with (seed % 4): 0 = light loss+jitter, 3 = collapse +
/// blackout + heavy loss.
[[nodiscard]] FaultPlan chaos_plan(std::uint64_t seed, std::size_t num_edges,
                                   std::size_t num_nodes,
                                   double period_seconds);

// --------------------------------------------------------------- runtime --

/// Compiled per-run view of a FaultPlan the engine consults at admission
/// time. All queries are O(#faults-on-that-edge) with tiny fault lists and
/// are called under the scheduler lock; loss counters live here so the
/// engine stays fault-agnostic.
class FaultRuntime {
 public:
  FaultRuntime() = default;
  FaultRuntime(const FaultPlan& plan, std::size_t num_edges,
               std::size_t num_nodes);

  [[nodiscard]] bool active() const { return active_; }

  /// Combined rate scale (collapses compounding) on `edge` at `now`; 1.0
  /// when healthy. Always > 0. Non-const: first activation counts as an
  /// injected fault.
  [[nodiscard]] double rate_scale(graph::EdgeId edge, double now);

  /// Compute-speed scale of `node` at `now`; 1.0 when healthy.
  [[nodiscard]] double node_scale(graph::NodeId node, double now);

  /// If `edge` is dark at `now`, the time the blackout lifts; otherwise
  /// `now` (callers gate on `release > now`).
  [[nodiscard]] double blackout_release(graph::EdgeId edge, double now);

  /// Decides (and consumes) the loss verdict for the next send on `edge`.
  /// Deterministic in the per-edge send ordinal.
  [[nodiscard]] bool lose_next_chunk(graph::EdgeId edge);

  /// Deterministic per-chunk arrival jitter in [0, max_seconds] for `edge`;
  /// 0 when no jitter is configured. Consumes the edge's jitter ordinal.
  [[nodiscard]] double next_jitter(graph::EdgeId edge);

  /// Backoff delay before retransmit attempt `attempt` (1-based).
  [[nodiscard]] double backoff(std::size_t attempt) const;

  [[nodiscard]] std::size_t max_retransmits() const {
    return plan_.max_retransmits;
  }

  /// Number of discrete fault events injected so far: every lost chunk,
  /// plus each configured collapse/slowdown/blackout/jitter spec the first
  /// time it actually bites.
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  struct EdgeState {
    double loss_probability = 0.0;
    double jitter_max = 0.0;
    std::uint64_t send_ordinal = 0;
    std::uint64_t jitter_ordinal = 0;
    bool jitter_fired = false;
  };

  FaultPlan plan_;
  bool active_ = false;
  std::vector<EdgeState> edges_;
  std::uint64_t injected_ = 0;
  // Activation latches so each timed spec counts as ONE injected fault.
  std::vector<char> collapse_fired_;
  std::vector<char> slowdown_fired_;
  std::vector<char> blackout_fired_;
};

}  // namespace ssco::exec
