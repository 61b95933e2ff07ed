// Parallel solve fabric (lp/parallel.h): pool mechanics — inline
// degeneration with zero workers, full shard coverage, deterministic
// lowest-shard error propagation, nested and concurrent run() — plus the
// determinism contract the LP engine builds on: solves driven through the
// pool must be BIT-IDENTICAL to serial at every thread count. The sweeps
// here pin that end to end: certified objectives, solution tables, pivot
// counts and colgen round counts of reduce / prefix / scatter solves are
// compared across 1/2/4/8-thread budgets against an explicitly injected
// pool (ExactSolverOptions::pool), so they exercise real cross-thread
// sharding even on single-core CI runners where the shared pool would have
// zero helpers.

#include "lp/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/prefix_lp.h"
#include "core/reduce_lp.h"
#include "core/scatter_lp.h"
#include "testing/pool.h"
#include "testing/util.h"

namespace ssco::lp {
namespace {

using testing::test_pool_workers;

// --- shard_range / shard_count: pure, deterministic splitting. ------------

TEST(ShardRange, CoversRangeContiguouslyForAnyShardCount) {
  for (std::size_t items : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t expect_begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const ShardRange r = shard_range(items, shards, s);
        EXPECT_EQ(r.begin, expect_begin);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, items);
    }
  }
}

TEST(ShardRange, SizesDifferByAtMostOne) {
  const std::size_t items = 103, shards = 8;
  std::size_t lo = items, hi = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const ShardRange r = shard_range(items, shards, s);
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Parallel, ShardCountHonoursBudgetAndMinPerShard) {
  ThreadPool pool(2);
  const Parallel par = Parallel::with(pool, 4);
  EXPECT_EQ(par.shard_count(1000, 1), 4u);   // capped by the budget
  EXPECT_EQ(par.shard_count(6, 4), 1u);      // 6/4 = 1 shard: stays serial
  EXPECT_EQ(par.shard_count(8, 4), 2u);      // exactly two minimal shards
  EXPECT_EQ(par.shard_count(0, 1), 1u);      // empty range never forks
  EXPECT_EQ(Parallel::serial().shard_count(1000, 1), 1u);
}

TEST(Parallel, SerialHandleRunsInlineWithoutPool) {
  // No pool at all: for_shards must still execute everything, on the
  // calling thread, as one shard.
  const Parallel par = Parallel::serial();
  std::vector<int> hits(10, 0);
  par.for_shards(hits.size(), 1,
                 [&](std::size_t shard, std::size_t begin, std::size_t end) {
                   EXPECT_EQ(shard, 0u);
                   for (std::size_t i = begin; i < end; ++i) hits[i]++;
                 });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// --- ThreadPool mechanics. ------------------------------------------------

TEST(ThreadPool, ZeroWorkerPoolExecutesAllShardsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> hits(17, 0);
  const std::thread::id caller = std::this_thread::get_id();
  pool.run(hits.size(), [&](std::size_t shard) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    hits[shard]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunExecutesEveryShardExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t shard) {
    hits[shard].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LowestFailingShardWinsErrorPropagation) {
  ThreadPool pool(3);
  // Several shards throw; the rethrown exception must be the LOWEST shard's
  // regardless of completion order, and the remaining shards must still all
  // have run.
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.run(hits.size(), [&](std::size_t shard) {
      hits[shard].fetch_add(1, std::memory_order_relaxed);
      if (shard == 9 || shard == 23 || shard == 41) {
        throw std::runtime_error("shard " + std::to_string(shard));
      }
    });
    FAIL() << "expected run() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 9");
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRunFromInsideShardCompletes) {
  // run() inside a shard body must make progress (callers drain their own
  // jobs), even when all helpers are parked inside the outer job.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, ConcurrentRunsFromManyCallersAllComplete) {
  ThreadPool pool(2);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kShards = 50;
  std::vector<std::atomic<int>> totals(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        pool.run(kShards, [&](std::size_t) {
          totals[c].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& total : totals) EXPECT_EQ(total.load(), 5 * kShards);
}

TEST(ThreadPool, InvokeAllRunsEveryTask) {
  ThreadPool pool(2);
  const Parallel par = Parallel::with(pool, 4);
  std::vector<std::atomic<int>> hits(3);
  par.invoke_all({[&] { hits[0]++; }, [&] { hits[1]++; }, [&] { hits[2]++; }});
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- Bit-identity: parallel solves == serial solves, at every budget. -----
//
// The solver is handed an explicit 3-helper pool so the sharded loops
// really cross threads; budgets 2/4/8 vary the shard counts. Every compared
// quantity — certified status, exact rational throughput, the full
// send/cons tables, pivot and colgen-round counts — must be EQ, not NEAR.

template <typename Options>
Options with_threads(ThreadPool* pool, std::size_t threads) {
  Options options;
  options.solver.pool = pool;
  options.solver.threads = threads;
  return options;
}

TEST(ParallelBitIdentity, ReduceColgenSweepAcrossThreadCounts) {
  ThreadPool pool(test_pool_workers());
  for (std::uint64_t seed : {7u, 23u}) {
    for (std::size_t participants : {3u, 5u}) {
      const auto inst =
          testing::random_reduce_instance(seed, participants + 3, participants);
      core::ReduceLpOptions serial;
      serial.colgen = core::ColGenMode::kAlways;
      const core::ReduceSolution base = core::solve_reduce(inst, serial);
      ASSERT_TRUE(base.certified);
      for (std::size_t threads : {2u, 4u, 8u}) {
        auto options = with_threads<core::ReduceLpOptions>(&pool, threads);
        options.colgen = core::ColGenMode::kAlways;
        const core::ReduceSolution sol = core::solve_reduce(inst, options);
        ASSERT_TRUE(sol.certified);
        EXPECT_EQ(sol.throughput, base.throughput)
            << "seed " << seed << " threads " << threads;
        EXPECT_EQ(sol.send, base.send);
        EXPECT_EQ(sol.cons, base.cons);
        EXPECT_EQ(sol.lp_pivots, base.lp_pivots);
        EXPECT_EQ(sol.lp_colgen_rounds, base.lp_colgen_rounds);
        EXPECT_EQ(sol.lp_columns_generated, base.lp_columns_generated);
      }
    }
  }
}

TEST(ParallelBitIdentity, ReduceDenseCertificationAcrossThreadCounts) {
  ThreadPool pool(test_pool_workers());
  const auto inst = testing::random_reduce_instance(11, 8, 4);
  core::ReduceLpOptions serial;
  serial.colgen = core::ColGenMode::kNever;
  const core::ReduceSolution base = core::solve_reduce(inst, serial);
  ASSERT_TRUE(base.certified);
  for (std::size_t threads : {2u, 4u, 8u}) {
    auto options = with_threads<core::ReduceLpOptions>(&pool, threads);
    options.colgen = core::ColGenMode::kNever;
    const core::ReduceSolution sol = core::solve_reduce(inst, options);
    ASSERT_TRUE(sol.certified);
    EXPECT_EQ(sol.throughput, base.throughput);
    EXPECT_EQ(sol.send, base.send);
    EXPECT_EQ(sol.cons, base.cons);
    EXPECT_EQ(sol.lp_pivots, base.lp_pivots);
  }
}

TEST(ParallelBitIdentity, PrefixSweepAcrossThreadCounts) {
  ThreadPool pool(test_pool_workers());
  for (std::uint64_t seed : {5u, 13u}) {
    const auto inst = testing::random_reduce_instance(seed, 7, 4);
    core::PrefixLpOptions serial;
    serial.colgen = core::ColGenMode::kAlways;
    const core::ReduceSolution base = core::solve_prefix(inst, serial);
    ASSERT_TRUE(base.certified);
    for (std::size_t threads : {2u, 4u, 8u}) {
      auto options = with_threads<core::PrefixLpOptions>(&pool, threads);
      options.colgen = core::ColGenMode::kAlways;
      const core::ReduceSolution sol = core::solve_prefix(inst, options);
      ASSERT_TRUE(sol.certified);
      EXPECT_EQ(sol.throughput, base.throughput)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(sol.send, base.send);
      EXPECT_EQ(sol.cons, base.cons);
      EXPECT_EQ(sol.lp_colgen_rounds, base.lp_colgen_rounds);
    }
  }
}

TEST(ParallelBitIdentity, ScatterDensePathAcrossThreadCounts) {
  ThreadPool pool(test_pool_workers());
  for (std::uint64_t seed : {3u, 17u}) {
    const auto inst = testing::random_scatter_instance(seed, 10, 4);
    const core::MultiFlow base = core::solve_scatter(inst);
    ASSERT_TRUE(base.certified);
    for (std::size_t threads : {2u, 4u, 8u}) {
      const auto options = with_threads<core::FlowLpOptions>(&pool, threads);
      const core::MultiFlow sol = core::solve_scatter(inst, options);
      ASSERT_TRUE(sol.certified);
      EXPECT_EQ(sol.throughput, base.throughput)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(sol.lp_pivots, base.lp_pivots);
    }
  }
}

}  // namespace
}  // namespace ssco::lp
