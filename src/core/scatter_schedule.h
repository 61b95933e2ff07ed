#pragma once
// Concrete periodic schedule for scatter/gossip flows (paper Sec. 3.3).
//
// Pipeline: integralize the flow (period T = LCM of denominators), list the
// messages per period of every (platform edge, commodity) pair with
// positive traffic, and lay them out with core::lay_out_comms (weighted
// edge coloring of the bipartite port graph, color classes back to back).
// Every port then serves at most one transfer at any instant — the one-port
// model holds by construction.
//
// Two modes, matching Fig. 4:
//  * split allowed (default): activities may carry fractional message counts
//    (a message finishes in a later slice); the period stays T.
//  * no-split: the schedule is rescaled by the LCM of the per-activity
//    message denominators, so every activity carries whole messages
//    (Fig. 4(b): period 12 -> 48).

#include "core/flow_solution.h"
#include "core/schedule.h"
#include "platform/paper_instances.h"

namespace ssco::core {

/// Builds the periodic schedule realizing `flow` on the platform. Works for
/// any MultiFlow (scatter or gossip): type k is commodity k, supplied by its
/// origin and absorbed by its destination.
[[nodiscard]] PeriodicSchedule build_flow_schedule(
    const platform::Platform& platform, const MultiFlow& flow,
    const ScheduleOptions& options = {});

}  // namespace ssco::core
