#pragma once
// Plan -> executable program compilation.
//
// An ExecProgram is the executor-facing form of a periodic schedule: every
// communication activity becomes a TransferTemplate (chunked into bounded
// wire units), every computation activity a ComputeTemplate (sliced the same
// way), and the per-node one-port admission orders are precomputed — each
// node's out-port, in-port and CPU execute their activities in the
// schedule's time order, period after period. Compilation also runs the
// static one-port checker (sim/oneport_check.h) so a structurally broken
// schedule is rejected before a single byte moves.
//
// The same program drives both engines: the threaded executor
// (exec/threaded_executor.h) paces it against the wall clock, the
// discrete-event executor (sim/event_exec.h) against a virtual clock.
//
// Lifetime: the program borrows the Platform (and nothing else) from its
// inputs; keep the instance alive while executing.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/flow_solution.h"
#include "core/schedule.h"
#include "exec/faults.h"
#include "graph/digraph.h"
#include "num/rational.h"
#include "platform/paper_instances.h"
#include "platform/platform.h"

namespace ssco::exec {

using num::Rational;

/// Wire bytes of one model message of size `message_size` — an upper bound:
/// when a schedule's period carries many messages (large LCM periods), the
/// compiler shrinks the per-message byte size so one period stays within
/// kBytesPerPeriodBudget. The program's actual choice is
/// ExecProgram::bytes_per_message.
inline constexpr std::size_t kBytesPerMessage = 64 * 1024;
/// Target total wire bytes per period. Keeps the real memcpy traffic of
/// byte-heavy schedules executable in real time.
inline constexpr std::size_t kBytesPerPeriodBudget = 4 * 1024 * 1024;
/// Upper bound on chunks per transfer (scheduler round-trips per period).
inline constexpr std::size_t kMaxChunksPerTransfer = 64;
/// Auto-pacing floor: a period is stretched beyond
/// ExecOptions::target_period_seconds until its wire traffic fits under this
/// many bytes/sec.
inline constexpr double kMaxBytesPerSec = 400e6;
/// Exactly-once verification is disabled above this many messages per period
/// (the identity bookkeeping would dominate the run).
inline constexpr std::size_t kMaxVerifyMsgsPerPeriod = 50000;
/// Pacing granularity: transfers are split into chunks of at most this many
/// bytes. Smaller chunks pace links more smoothly but pay more scheduler
/// round-trips per byte (DESIGN.md: granularity tradeoff).
inline constexpr std::size_t kChunkBytes = 16 * 1024;
/// Bounded channel capacity per edge, in chunks (backpressure depth).
inline constexpr std::size_t kChannelChunks = 8;
/// Threaded executor: abort with an error if no progress for this long.
inline constexpr double kWatchdogSeconds = 20.0;

struct ExecOptions {
  /// Worker threads for the threaded executor; 0 = min(hardware, 8).
  std::size_t workers = 0;
  /// Wall seconds one period takes: the compiler auto-paces the model time
  /// unit to this (stretched under kMaxBytesPerSec).
  double target_period_seconds = 5e-3;
  /// Pipeline-fill periods excluded from the measured window.
  std::size_t warmup_periods = 8;
  /// Periods inside the measured window.
  std::size_t measure_periods = 32;
  /// Token-bucket burst (and port pacing slack), in chunks: how far a port
  /// may catch up after an admission stall. Bounds the transient rate
  /// overshoot; the long-run rate is still the modeled one.
  double burst_chunks = 2.0;
  /// Drift injection for the observe -> re-solve loop: actual link rate =
  /// modeled rate * link_rate_scale[edge]. Empty = all 1.0. The plan keeps
  /// believing the modeled rate; the report shows what really happened.
  std::vector<double> link_rate_scale;
  /// Seeded fault scenario (loss, jitter, collapse, slowdown, blackout)
  /// applied identically by both backends; empty = no fault hooks.
  FaultPlan faults;
  /// Abort with a typed kDeadlineExceeded fault if the run (warmup +
  /// window) has not finished by this engine time. 0 = no deadline.
  double deadline_seconds = 0.0;
};

/// One chunk of a transfer: an exact share of the activity's messages and a
/// balanced share of its wire bytes.
struct ChunkSpec {
  Rational messages;
  std::uint64_t bytes = 0;
  double seconds = 0.0;       // wire time at the ACTUAL (drift-scaled) rate
  std::uint64_t whole_msgs = 0;  // integral message count (verify mode)
};

/// One communication activity per period, chunked.
struct TransferTemplate {
  graph::EdgeId edge = graph::kInvalidId;
  graph::NodeId src = graph::kInvalidId;
  graph::NodeId dst = graph::kInvalidId;
  std::size_t type = 0;  // commodity index (flow) / interval id (reduce)
  Rational messages;     // per period
  std::uint64_t wire_bytes = 0;
  std::vector<ChunkSpec> chunks;
};

/// One computation activity per period (reduce only), sliced.
struct ComputeSlice {
  Rational count;
  double seconds = 0.0;
};
struct ComputeTemplate {
  graph::NodeId node = graph::kInvalidId;
  std::size_t left = 0, right = 0, product = 0;  // interval ids
  Rational count;  // per period
  std::vector<ComputeSlice> slices;
};

struct ExecProgram {
  enum class Kind { kFlow, kReduce };
  Kind kind = Kind::kFlow;
  const platform::Platform* platform = nullptr;

  // Data model: buffered value types (commodities or intervals).
  std::size_t num_types = 0;
  /// Node with unlimited supply of each type (flow: the commodity origin;
  /// reduce: the owning participant of a singleton), kInvalidId otherwise.
  std::vector<graph::NodeId> supplier_of_type;
  /// Node that absorbs the type as a completed delivery (flow: the
  /// commodity destination; reduce: the target, full interval only).
  std::vector<graph::NodeId> sink_of_type;

  std::vector<TransferTemplate> transfers;
  std::vector<ComputeTemplate> comps;
  /// Per node: transfer indices in schedule order (one-port admission).
  std::vector<std::vector<std::size_t>> out_order;
  std::vector<std::vector<std::size_t>> in_order;
  /// Per node: compute indices in schedule order.
  std::vector<std::vector<std::size_t>> cpu_order;

  Rational period;          // model units
  Rational throughput;      // LP-certified TP, ops per model unit
  Rational ops_per_period;  // integral ops completed per period
  double seconds_per_unit = 0.0;
  /// Wire bytes of one model message (kBytesPerMessage, possibly shrunk to
  /// honor the per-period byte budget).
  std::size_t bytes_per_message = 0;
  std::size_t op_payload_bytes = 0;  // application bytes per completed op
  /// Modeled link rate in bytes per wall second, per edge.
  std::vector<double> modeled_rate;
  /// Actual link rate (modeled * drift scale), per edge.
  std::vector<double> actual_rate;
  /// Per-period whole-message counts per type delivered at the sink
  /// (verify mode); empty when verification is off.
  std::vector<std::uint64_t> msgs_per_period;
  /// Tag every message with its identity and verify exactly-once delivery
  /// at the destinations. On for integral-message flow schedules of at most
  /// kMaxVerifyMsgsPerPeriod messages per period; off otherwise — the fluid
  /// quantities make identity meaningless.
  bool verify = false;

  /// Empty when the schedule passed the static one-port check.
  std::string oneport_error;

  [[nodiscard]] std::size_t num_nodes() const {
    return platform->num_nodes();
  }
};

/// Compiles a scatter/gossip flow plan. `flow` provides commodity roles and
/// the certified throughput; `schedule` is the realized periodic schedule.
[[nodiscard]] ExecProgram compile_flow_program(
    const platform::Platform& platform, const core::MultiFlow& flow,
    const core::PeriodicSchedule& schedule, const ExecOptions& options = {});

/// Compiles a reduce plan (schedule types are IntervalSpace interval ids;
/// compute tasks are IntervalSpace task ids).
[[nodiscard]] ExecProgram compile_reduce_program(
    const platform::ReduceInstance& instance, const Rational& throughput,
    const core::PeriodicSchedule& schedule, const ExecOptions& options = {});

}  // namespace ssco::exec
