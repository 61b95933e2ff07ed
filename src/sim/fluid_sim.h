#pragma once
// Fluid execution of a periodic schedule, in exact rationals.
//
// Plays the schedule period after period from empty per-node buffers with
// *lazy* semantics: an activity moves as much of its planned volume as the
// buffers hold. The schedule's roles are the whole data model: a withdrawal
// of type t at t's supplier is unlimited, a deposit at t's sink counts as
// delivered, and a merge consumes equal amounts of its two operand types
// (only adjacent reduce intervals ever combine). Completed operations are
// the minimum delivery over the types that have a sink.
//
// This is the runtime counterpart of the paper's initialization argument
// (Sec. 3.4, Props. 1-3; Sec. 4.5 for reduce): while the pipeline fills,
// activities under-deliver; once every buffer holds one period's worth, the
// execution is exactly periodic and delivers at TP. The simulator measures
// that ramp (bench prop1_optimality) and certifies the steady state. The
// event engine (sim/event_exec.h) primes one period of stock and runs a
// double clock, so it has no ramp to measure; this stays its exact
// reference. Split-message schedules (Fig. 4(a)) move fractional amounts;
// with a no-split schedule all quantities stay integral.

#include <vector>

#include "core/schedule.h"
#include "platform/platform.h"

namespace ssco::sim {

using num::Rational;

struct FluidSimResult {
  /// Total simulated time (periods * period length).
  Rational horizon;
  /// Cumulative amount of each type absorbed at its sink (0 for types
  /// without one), sampled at the end of each period.
  std::vector<std::vector<Rational>> delivered_by_period;
  std::vector<Rational> delivered;  // after the last period
  /// Cumulative completed operations, sampled at the end of each period.
  std::vector<Rational> completed_by_period;
  Rational completed_operations;  // after the last period
  /// True when the last period moved every activity's full planned volume.
  bool steady_state_reached = false;
};

/// Runs `periods` periods of the schedule. Throws std::invalid_argument
/// when an activity names a type the schedule has no roles for.
[[nodiscard]] FluidSimResult simulate_schedule(
    const platform::Platform& platform, const core::PeriodicSchedule& schedule,
    std::size_t periods);

}  // namespace ssco::sim
