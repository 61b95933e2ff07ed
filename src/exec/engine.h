#pragma once
// The execution engine shared by both data-plane backends.
//
// One Engine instance runs one compiled ExecProgram either against the wall
// clock with real worker threads and real payload buffers (threaded mode,
// exec/threaded_executor.h) or against a virtual clock in a single
// deterministic loop (event mode, sim/event_exec.h). The two modes share
// every admission rule, so a schedule that misbehaves does so identically in
// both — the event executor is the debuggable twin of the threaded one.
//
// Execution model
// ---------------
// Each node owns three ports — OUT (sends), IN (receives), CPU (reduce
// merges) — and each port replays its schedule-ordered activity list
// cyclically, one chunk/slice at a time. A port step is ADMISSIBLE when
//   * structural conditions hold: input data available (exact Rational
//     message bookkeeping — bytes are only rounded for the actual memcpy),
//     channel slot free (sends), chunk arrived (receives);
//   * and its ready time has passed: port pacing (GCRA theoretical-arrival-
//     time with a small burst slack so condition-variable wake jitter does
//     not leak throughput) plus the edge token bucket (sends) plus the wire
//     arrival time (receives).
// Admission and bookkeeping happen under one scheduler mutex; payload
// memcpy/validation happens outside it on exclusively owned chunks. The
// scheduler always admits the lowest-numbered admissible port (by node,
// then OUT, IN, CPU), and re-checks only the ports whose inputs a commit
// changed or whose ready time has come (engine.cpp, admit_next).
//
// Because every port executes strictly one activity at a time and its TAT
// advances by the activity's full wire/compute occupation, the one-port
// model should hold structurally; the engine still counts per-port
// occupancy and reports any overlap as a violation. Every suite input reads
// 0; the dense random_reduce n=16, 6 parts, seed 10 of
// benchmark/src/instances.h reads 192 (ROADMAP item 1).
//
// Priming: node buffers start with one period's worth of each type a node
// consumes (the paper's pipeline-fill: period p works on data produced in
// period p-1), meant to keep intra-period availability waits from forming a
// cycle; sends only wait on time or a draining channel. It does not for
// every plan: dense random_reduce n=12, 5 parts, seed 28 and n=16, 6 parts,
// seed 3 end in kDeadlock on the event backend (ROADMAP item 1).

#include <cstdint>
#include <deque>
#include <vector>

#include "exec/channel.h"
#include "exec/exec_report.h"
#include "exec/program.h"
#include "exec/rate_limiter.h"
#include "num/rational.h"

namespace ssco::exec {

/// Runs `program` with real threads against the wall clock.
[[nodiscard]] ExecReport run_threaded(const ExecProgram& program,
                                      const ExecOptions& options);

/// Runs `program` single-threaded against a virtual clock: identical
/// admission logic, deterministic result, no payload allocation.
[[nodiscard]] ExecReport run_event(const ExecProgram& program,
                                   const ExecOptions& options);

}  // namespace ssco::exec
