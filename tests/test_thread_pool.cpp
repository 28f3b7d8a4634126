#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace coloc {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, ComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<double> out(1000, 0.0);
  parallel_for(pool, out.size(), [&out](std::size_t i) {
    out[i] = static_cast<double>(i);
  });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

TEST(ParallelFor, RethrowsBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::logic_error("bad");
                            },
                            1),
               std::logic_error);
}

TEST(ParallelFor, ExplicitChunking) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 97, [&counter](std::size_t) { ++counter; }, 10);
  EXPECT_EQ(counter.load(), 97);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; }).get();
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_THROW(pool.submit([&counter] { ++counter; }), coloc::runtime_error);
  EXPECT_EQ(counter.load(), 1) << "a rejected task must never run";
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), coloc::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&counter] { ++counter; }));
    }
    pool.shutdown();
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, QuiesceWaitsForAllBookkeeping) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++counter;
    });
  }
  pool.quiesce();
  // Once quiesce returns, every task has retired: counted in stats(),
  // busy time booked, no task still mid-flight.
  EXPECT_EQ(counter.load(), 64);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tasks, 64u);
  EXPECT_GT(s.busy_seconds, 0.0);

  // The pool stays usable after a quiesce.
  pool.submit([&counter] { ++counter; }).get();
  EXPECT_EQ(counter.load(), 65);
  pool.quiesce();  // idempotent on an idle pool
}

TEST(PoolStats, IdlePoolHasNearZeroUtilization) {
  // Satellite regression test: workers parked in the condition-variable
  // wait (including the final wait released by shutdown()) must book that
  // time as idle, never busy.
  ThreadPool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const PoolStats live = pool.stats();
  EXPECT_EQ(live.tasks, 0u);
  EXPECT_GE(live.idle_seconds, 0.04) << "open waits count as idle";
  EXPECT_LT(live.utilization(), 0.05);

  pool.shutdown();
  const PoolStats final_stats = pool.stats();
  EXPECT_EQ(final_stats.workers, 2u);
  EXPECT_DOUBLE_EQ(final_stats.busy_seconds, 0.0);
  EXPECT_GE(final_stats.idle_seconds, 0.04);
  EXPECT_LT(final_stats.utilization(), 0.05)
      << "the final shutdown wait must not be booked as busy";
}

TEST(PoolStats, BusyTimeCoversTaskExecution) {
  ThreadPool pool(1);
  pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }).get();
  pool.shutdown();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tasks, 1u);
  EXPECT_GE(s.busy_seconds, 0.025);
  EXPECT_GT(s.utilization(), 0.0);
}

TEST(PoolStats, FreshPoolReportsZeroUtilizationNotNan) {
  const PoolStats s;  // busy == idle == 0
  EXPECT_DOUBLE_EQ(s.utilization(), 0.0);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace coloc
