// Execution data plane: correctness and efficiency of both backends.
//
// Correctness claims checked here:
//   * scatter: every message of every commodity arrives at its destination
//     exactly once (message-identity marking + payload pattern validation),
//     including on whole-message (no-split) schedules;
//   * reduce: merges only ever combine adjacent intervals (legality is
//     structural in the compiled program, asserted directly) and the target
//     absorbs full results at the certified rate;
//   * one-port: zero admission violations at 1, 4 and 8 worker threads;
//   * the discrete-event backend is deterministic and reaches ~100% of the
//     schedule's throughput; the threaded backend stays above the
//     efficiency floor on a real machine (relaxed under sanitizers, which
//     deliberately distort the wall clock).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/steady_state.h"
#include "exec/engine.h"
#include "exec/exec_report.h"
#include "exec/program.h"
#include "exec/threaded_executor.h"
#include "platform/paper_instances.h"
#include "sim/event_exec.h"
#include "sim/fluid_sim.h"
#include "testing/util.h"

namespace ssco {
namespace {

using exec::ExecOptions;
using exec::ExecProgram;
using exec::ExecReport;
using exec::sanitized_build;  // shared with the engine's watchdog scaling

/// Fast test pacing: shorter periods for the virtual backend don't matter,
/// but the threaded runs spend real wall time.
ExecOptions quick_options() {
  ExecOptions opt;
  opt.warmup_periods = 6;
  opt.measure_periods = 16;
  opt.target_period_seconds = 4e-3;
  return opt;
}

/// Wall-clock efficiency floors are load-sensitive (the whole point of the
/// threaded backend is that it pays real scheduling costs), and the test
/// host may be running the rest of the suite — or anything else — on the
/// same cores. Retry a few times and keep the best run: a genuine executor
/// regression fails every attempt, transient CPU contention does not.
template <typename RunFn>
ExecReport best_effort(RunFn run, double floor, int attempts = 3) {
  ExecReport best = run();
  for (int i = 1; i < attempts && best.fault.ok() &&
                  best.oneport_violations == 0 && best.delivery_errors == 0 &&
                  best.efficiency < floor;
       ++i) {
    ExecReport next = run();
    if (next.efficiency > best.efficiency) best = next;
  }
  return best;
}

void expect_clean(const ExecReport& report) {
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_EQ(report.oneport_violations, 0u);
  EXPECT_EQ(report.delivery_errors, 0u);
  EXPECT_GT(report.operations, 0u);
  EXPECT_GT(report.elapsed_seconds, 0.0);
}

// ---- program compilation ---------------------------------------------------

TEST(ExecProgramTest, CompilesFig2ScatterSchedule) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  const ExecProgram program =
      exec::compile_flow_program(inst.platform, plan.flow, plan.schedule);
  EXPECT_TRUE(program.oneport_error.empty()) << program.oneport_error;
  EXPECT_EQ(program.transfers.size(), plan.schedule.comms.size());
  EXPECT_GT(program.ops_per_period, num::Rational(0));
  // Every transfer chunk carries a positive share and the chunk shares of a
  // transfer sum back to its activity total.
  for (const auto& t : program.transfers) {
    num::Rational sum(0);
    for (const auto& c : t.chunks) sum += c.messages;
    EXPECT_EQ(sum, t.messages);
  }
}

TEST(ExecProgramTest, ReduceMergesOnlyAdjacentIntervals) {
  const auto inst = platform::fig6_triangle();
  const auto plan = core::optimize_reduce(inst);
  const ExecProgram program = exec::compile_reduce_program(
      inst, plan.solution.throughput, plan.schedule);
  EXPECT_TRUE(program.oneport_error.empty()) << program.oneport_error;
  const core::IntervalSpace sp(inst.participants.size());
  for (const auto& comp : program.comps) {
    const auto [lk, lm] = sp.interval(comp.left);
    const auto [rk, rm] = sp.interval(comp.right);
    const auto [pk, pm] = sp.interval(comp.product);
    EXPECT_EQ(lm + 1, rk) << "non-adjacent merge";
    EXPECT_EQ(pk, lk);
    EXPECT_EQ(pm, rm);
    num::Rational sum(0);
    for (const auto& s : comp.slices) sum += s.count;
    EXPECT_EQ(sum, comp.count);
  }
}

TEST(ExecProgramTest, HugeCountsCompileToBoundedSlicesAndChunks) {
  // Large-LCM periods put 10^18..10^30 operations in one period of some
  // certified plans. Compile must still give every template 1 to
  // kMaxChunksPerTransfer slices or chunks, whose bytes add up to the
  // transfer's, and the run must end in the typed count overflow.
  const auto inst = platform::fig6_triangle();
  const auto plan = core::optimize_reduce(inst);
  std::size_t prev_slices = 0;
  for (const char* factor : {"1000000000000000000", "100000000000000000000"}) {
    SCOPED_TRACE(std::string("schedule scaled by ") + factor);
    core::PeriodicSchedule schedule = plan.schedule;
    schedule.scale(num::Rational(factor));
    const ExecProgram program = exec::compile_reduce_program(
        inst, plan.solution.throughput, schedule);
    std::size_t slices = 0;
    for (const auto& comp : program.comps) {
      EXPECT_GE(comp.slices.size(), 1u);
      EXPECT_LE(comp.slices.size(), exec::kMaxChunksPerTransfer);
      slices += comp.slices.size();
    }
    EXPECT_GE(slices, prev_slices);
    prev_slices = slices;
    for (const auto& t : program.transfers) {
      EXPECT_GE(t.chunks.size(), 1u);
      EXPECT_LE(t.chunks.size(), exec::kMaxChunksPerTransfer);
      std::uint64_t bytes = 0;
      bool wrapped = false;
      for (const auto& c : t.chunks) {
        wrapped = wrapped || c.bytes > t.wire_bytes;
        bytes += c.bytes;
      }
      EXPECT_FALSE(wrapped);
      EXPECT_EQ(bytes, t.wire_bytes);
    }
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(threaded ? "threaded" : "event");
      const ExecReport report =
          threaded ? exec::execute(program, quick_options())
                   : sim::simulate_execution(program, quick_options());
      EXPECT_EQ(report.fault.code, exec::FaultCode::kCountOverflow)
          << report.fault.to_string();
    }
  }
}

// ---- discrete-event backend ------------------------------------------------

TEST(EventExecTest, Fig2ScatterReachesCertifiedThroughput) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, quick_options());
  expect_clean(report);
  EXPECT_TRUE(report.simulated);
  EXPECT_GE(report.efficiency, 0.95) << report.to_string(inst.platform);
  EXPECT_LE(report.efficiency, 1.05) << report.to_string(inst.platform);
}

TEST(EventExecTest, Fig6TriangleReduce) {
  const auto inst = platform::fig6_triangle();
  const auto plan = core::optimize_reduce(inst);
  const ExecReport report =
      sim::simulate_reduce_execution(inst, plan, quick_options());
  expect_clean(report);
  EXPECT_GE(report.efficiency, 0.95) << report.to_string(inst.platform);
  EXPECT_LE(report.efficiency, 1.05);
}

TEST(EventExecTest, Fig9TiersReduce) {
  const auto inst = platform::fig9_tiers();
  const auto plan = core::optimize_reduce(inst);
  const ExecReport report =
      sim::simulate_reduce_execution(inst, plan, quick_options());
  expect_clean(report);
  EXPECT_GE(report.efficiency, 0.95) << report.to_string(inst.platform);
  EXPECT_LE(report.efficiency, 1.05);
}

TEST(EventExecTest, RandomHeterogeneous16Scatter) {
  const auto inst = testing::random_scatter_instance(7, 16, 8);
  const auto plan = core::optimize_scatter(inst);
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, quick_options());
  expect_clean(report);
  EXPECT_GE(report.efficiency, 0.95) << report.to_string(inst.platform);
  EXPECT_LE(report.efficiency, 1.05);
}

TEST(EventExecTest, Deterministic) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  const ExecReport a =
      sim::simulate_flow_execution(inst.platform, plan, quick_options());
  const ExecReport b =
      sim::simulate_flow_execution(inst.platform, plan, quick_options());
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_DOUBLE_EQ(a.efficiency, b.efficiency);
}

TEST(EventExecTest, InjectedDriftShowsUpAsLostEfficiencyAndInferredCosts) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_options();
  // Halve the actual rate of every link: achieved throughput should drop to
  // ~50% of certified and the drift inference should roughly double costs.
  opt.link_rate_scale.assign(inst.platform.num_edges(), 0.5);
  const ExecReport report =
      sim::simulate_flow_execution(inst.platform, plan, opt);
  EXPECT_TRUE(report.fault.ok()) << report.fault.to_string();
  EXPECT_LT(report.efficiency, 0.7) << report.to_string(inst.platform);
  EXPECT_GT(report.efficiency, 0.3);

  const auto delta = exec::infer_cost_drift(inst.platform, report, 0.15);
  ASSERT_FALSE(delta.cost_changes.empty());
  for (const auto& change : delta.cost_changes) {
    const double ratio =
        (change.cost / inst.platform.edge_cost(change.edge)).to_double();
    EXPECT_NEAR(ratio, 2.0, 0.05);
  }
}

// ---- whole-message (integral) schedules on the event backend --------------
//
// No-split schedules are the ones whose every message keeps its identity, so
// compile turns exactly-once verification on for them: the engine then checks
// each message reaches its destination once, as a whole.

struct NoSplitRun {
  core::FlowPlan plan;
  ExecProgram program;
  ExecReport report;
};

NoSplitRun run_no_split(const platform::ScatterInstance& inst) {
  core::PlanOptions no_split;
  no_split.allow_split_messages = false;
  NoSplitRun run;
  run.plan = core::optimize_scatter(inst, no_split);
  run.program = exec::compile_flow_program(inst.platform, run.plan.flow,
                                           run.plan.schedule, quick_options());
  run.report = sim::simulate_execution(run.program, quick_options());
  return run;
}

TEST(IntegralSim, Fig2DeliversWholeMessagesAtFullRate) {
  const auto inst = platform::fig2_toy();
  const NoSplitRun run = run_no_split(inst);
  ASSERT_TRUE(run.plan.schedule.has_integral_messages());
  EXPECT_TRUE(run.program.verify);
  expect_clean(run.report);
  EXPECT_GE(run.report.efficiency, 0.95) << run.report.to_string(inst.platform);
  EXPECT_LE(run.report.efficiency, 1.05) << run.report.to_string(inst.platform);
}

TEST(IntegralSim, MatchesFluidUpToRampAndRounding) {
  // The fluid simulator plays the same no-split schedule; once its buffers
  // are full it moves one period's planned traffic per period. The engine's
  // whole-message steady state must deliver at that same rate.
  const auto inst = platform::fig2_toy();
  const NoSplitRun run = run_no_split(inst);
  const auto fluid =
      sim::simulate_schedule(inst.platform, run.plan.schedule, 40);
  ASSERT_TRUE(fluid.steady_state_reached);
  const num::Rational bound = run.plan.flow.throughput * fluid.horizon;
  EXPECT_GT((fluid.completed_operations / bound).to_double(), 0.85);
  EXPECT_LE(fluid.completed_operations, bound);

  const auto& by_period = fluid.delivered_by_period;
  ASSERT_GE(by_period.size(), 2u);
  const std::size_t last = by_period.size() - 1;
  num::Rational last_period_ops = by_period[last][0] - by_period[last - 1][0];
  for (std::size_t k = 1; k < by_period[last].size(); ++k) {
    const num::Rational d = by_period[last][k] - by_period[last - 1][k];
    if (d < last_period_ops) last_period_ops = d;
  }
  const double fluid_rate =
      (last_period_ops /
       (run.plan.flow.throughput * run.plan.schedule.period))
          .to_double();

  EXPECT_TRUE(run.program.verify);
  expect_clean(run.report);
  EXPECT_NEAR(run.report.efficiency, fluid_rate, 0.05)
      << run.report.to_string(inst.platform);
}

TEST(IntegralSim, NoDuplicatesOnRandomPlatforms) {
  for (const std::uint64_t seed : {19u, 38u, 57u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto inst = testing::random_scatter_instance(seed, 6, 2);
    const NoSplitRun run = run_no_split(inst);
    ASSERT_TRUE(run.plan.schedule.has_integral_messages());
    EXPECT_TRUE(run.program.verify);
    expect_clean(run.report);
    EXPECT_GE(run.report.efficiency, 0.95)
        << run.report.to_string(inst.platform);
    EXPECT_LE(run.report.efficiency, 1.05)
        << run.report.to_string(inst.platform);
  }
}

// ---- threaded backend ------------------------------------------------------

TEST(ThreadedExecTest, Fig2ScatterExactlyOnceAcrossWorkerCounts) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  for (std::size_t workers : {1u, 4u, 8u}) {
    ExecOptions opt = quick_options();
    opt.workers = workers;
    const ExecReport report = best_effort(
        [&] { return exec::execute_flow(inst.platform, plan, opt); }, 0.8);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_clean(report);
    EXPECT_FALSE(report.simulated);
    if (!sanitized_build()) {
      EXPECT_GE(report.efficiency, 0.8) << report.to_string(inst.platform);
    }
    EXPECT_LE(report.efficiency, 1.1);
  }
}

TEST(ThreadedExecTest, Fig6TriangleReduceAcrossWorkerCounts) {
  const auto inst = platform::fig6_triangle();
  const auto plan = core::optimize_reduce(inst);
  for (std::size_t workers : {1u, 4u, 8u}) {
    ExecOptions opt = quick_options();
    opt.workers = workers;
    const ExecReport report = best_effort(
        [&] { return exec::execute_reduce(inst, plan, opt); }, 0.8);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_clean(report);
    if (!sanitized_build()) {
      EXPECT_GE(report.efficiency, 0.8) << report.to_string(inst.platform);
    }
  }
}

TEST(ThreadedExecTest, RandomHeterogeneous16ScatterMeetsEfficiencyFloor) {
  const auto inst = testing::random_scatter_instance(7, 16, 8);
  const auto plan = core::optimize_scatter(inst);
  ExecOptions opt = quick_options();
  opt.workers = 8;
  const ExecReport report = best_effort(
      [&] { return exec::execute_flow(inst.platform, plan, opt); }, 0.85, 4);
  expect_clean(report);
  // The ISSUE acceptance floor: >= 0.85 of the LP-certified bound with zero
  // one-port violations on the n=16 heterogeneous instance at 8 threads.
  if (!sanitized_build()) {
    EXPECT_GE(report.efficiency, 0.85) << report.to_string(inst.platform);
  }
}

TEST(ThreadedExecTest, CountOverflowIsATypedFaultOnBothBackends) {
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  const ExecProgram fig2 =
      exec::compile_flow_program(inst.platform, plan.flow, plan.schedule);
  ASSERT_FALSE(fig2.transfers.empty());
  ASSERT_FALSE(fig2.transfers.front().chunks.empty());
  ExecOptions opt = quick_options();
  opt.warmup_periods = 4;
  opt.measure_periods = 16;
  // 20 periods of just over 2^63/20 operations: the window's operation
  // count no longer fits the engine's 64-bit counters.
  ExecProgram ops = fig2;
  ops.ops_per_period =
      num::Rational(num::BigInt::pow(num::BigInt(2), 63), num::BigInt(20)) +
      num::Rational(1);
  // The first transfer's chunks carry shares 1/p of its messages, one per
  // prime, and one more chunk the rest: its total is unchanged, and its
  // type's common denominator D_k gains every prime as a factor.
  const auto split = [&fig2](const std::vector<std::int64_t>& primes) {
    ExecProgram program = fig2;
    exec::TransferTemplate& t = program.transfers.front();
    t.chunks.assign(primes.size() + 1, t.chunks.front());
    num::Rational rest = t.messages;
    for (std::size_t i = 0; i < primes.size(); ++i) {
      t.chunks[i].messages = t.messages * num::Rational(1, primes[i]);
      rest -= t.chunks[i].messages;
    }
    t.chunks.back().messages = rest;
    return program;
  };
  // Three primes near 2^45: D_k needs more than 127 bits, past the
  // engine's exact 128-bit stock units.
  const ExecProgram wide =
      split({35184372088777, 35184372088763, 35184372088751});
  // Two primes near 2^61: D_k fits (124 bits), but the sink's stock gains
  // about 2^124 units a period and passes 127 bits mid-run.
  const ExecProgram deep = split({2305843009213693951, 2305843009213693921});
  const struct {
    const char* name;
    const ExecProgram& program;
  } cases[] = {{"operations", ops}, {"denominator", wide}, {"stock", deep}};
  for (const auto& c : cases) {
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (threaded ? " threaded" : " event"));
      ExecReport report;
      ASSERT_NO_THROW(report = threaded
                                   ? exec::execute(c.program, opt)
                                   : sim::simulate_execution(c.program, opt));
      EXPECT_EQ(report.fault.code, exec::FaultCode::kCountOverflow)
          << report.fault.to_string();
      EXPECT_STREQ(exec::fault_code_name(report.fault.code),
                   "count-overflow");
      EXPECT_FALSE(report.ok());
      EXPECT_EQ(report.operations, 0u);
      // Setup catches the first two; the running sum overflows mid-run.
      EXPECT_EQ(report.fault.at_seconds > 0.0, &c.program == &deep);
    }
  }
}

TEST(ThreadedExecTest, WorkerExceptionIsATypedFault) {
  if (sanitized_build()) {
    GTEST_SKIP() << "sanitizer allocators abort on a 2^62-byte request "
                    "instead of throwing std::bad_alloc";
  }
  const auto inst = platform::fig2_toy();
  const auto plan = core::optimize_scatter(inst);
  ExecProgram program =
      exec::compile_flow_program(inst.platform, plan.flow, plan.schedule);
  ASSERT_FALSE(program.transfers.empty());
  ASSERT_FALSE(program.transfers.front().chunks.empty());
  // The payload of this chunk cannot be allocated: the resize throws
  // std::bad_alloc on a worker thread, outside the scheduler lock.
  program.transfers.front().chunks.front().bytes = std::uint64_t{1} << 62;
  ExecOptions opt = quick_options();
  opt.workers = 2;
  const ExecReport report = exec::execute(program, opt);
  EXPECT_EQ(report.fault.code, exec::FaultCode::kWorkerException)
      << report.fault.to_string();
  EXPECT_STREQ(exec::fault_code_name(report.fault.code), "worker-exception");
  EXPECT_FALSE(report.ok());
}

TEST(ThreadedExecTest, RejectsScheduleThatFailsStaticOneportCheck) {
  const auto inst = platform::fig2_toy();
  auto plan = core::optimize_scatter(inst);
  ASSERT_FALSE(plan.schedule.comms.empty());
  // Sabotage: force two activities on the same out-port to overlap.
  plan.schedule.comms.push_back(plan.schedule.comms.front());
  const ExecProgram program =
      exec::compile_flow_program(inst.platform, plan.flow, plan.schedule);
  if (program.oneport_error.empty()) {
    GTEST_SKIP() << "duplicated activity still fits; nothing to reject";
  }
  const ExecReport report = exec::execute(program, quick_options());
  EXPECT_EQ(report.fault.code, exec::FaultCode::kOneportStatic);
  EXPECT_FALSE(report.fault.message.empty());
  EXPECT_GT(report.oneport_violations, 0u);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace ssco
