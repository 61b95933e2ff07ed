#pragma once
// Discrete-event execution backend.
//
// The deterministic twin of exec/threaded_executor.h: the same compiled
// ExecProgram, the same admission rules (one-port pacing, token buckets,
// bounded channels, exact integer stock units), but a single loop that
// jumps a virtual clock to the next ready instant instead of sleeping real
// threads, and no payload allocation. Results are bit-reproducible, free of
// scheduler jitter, and fill the same ExecReport — so the gap between this
// report's efficiency and the threaded one's is precisely the cost of
// running on a real machine (DESIGN.md: execution data plane).
//
// Reproducibility extends to tracing (obs/trace.h): two simulate runs of
// the same program admit the same steps at the same virtual instants from
// one thread, so their exported traces are bit-identical after aligning
// the run-start offset — the trace test suite pins this down.

#include "core/steady_state.h"
#include "exec/exec_report.h"
#include "exec/program.h"
#include "platform/paper_instances.h"
#include "platform/platform.h"

namespace ssco::sim {

/// Simulates an already-compiled program on the virtual clock.
[[nodiscard]] exec::ExecReport simulate_execution(
    const exec::ExecProgram& program, const exec::ExecOptions& options = {});

/// Compiles and simulates a scatter/gossip flow plan.
[[nodiscard]] exec::ExecReport simulate_flow_execution(
    const platform::Platform& platform, const core::FlowPlan& plan,
    const exec::ExecOptions& options = {});

/// Compiles and simulates a reduce plan.
[[nodiscard]] exec::ExecReport simulate_reduce_execution(
    const platform::ReduceInstance& instance, const core::ReducePlan& plan,
    const exec::ExecOptions& options = {});

}  // namespace ssco::sim
