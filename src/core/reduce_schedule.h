#pragma once
// Concrete periodic schedule for a weighted reduction-tree family
// (paper Sec. 4.3).
//
// Pipeline: integralize the tree weights (period T = LCM of weight
// denominators, so each tree runs an integer number of operations per
// period), pack compute tasks sequentially per node (computation fully
// overlaps communication in the model; ordering within the period is
// irrelevant in steady state because inputs come from earlier periods'
// buffered results — the paper's initialization-phase argument), and lay
// every tree's transfer tasks out with core::lay_out_comms (weighted edge
// coloring of the bipartite port graph, slices back to back).
//
// Types are IntervalSpace interval ids: participant i supplies the
// singleton [i,i], the target absorbs the full interval, and merge task
// T(k,l,m) turns [k,l] and [l+1,m] into [k,m].

#include "core/schedule.h"
#include "core/tree_extract.h"

namespace ssco::core {

[[nodiscard]] PeriodicSchedule build_reduce_schedule(
    const platform::ReduceInstance& instance,
    const TreeDecomposition& decomposition,
    const ScheduleOptions& options = {});

}  // namespace ssco::core
