#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/attribution.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
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

TEST(ParallelFor, NeverRunsMoreBodiesThanItsCap) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::atomic<int>> hits(48);
  const PoolStats stats = parallel_for(
      pool, hits.size(),
      [&](std::size_t i) {
        const int now = ++running;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        ++hits[i];
        --running;
      },
      1, 2);
  EXPECT_LE(peak.load(), 2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The call's own accounting: two runners, busy inside their capacity.
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.tasks, hits.size());
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);
}

TEST(ParallelFor, CapOneRunsEveryIndexOnTheCallingThreadInOrder) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  const PoolStats stats = parallel_for(
      pool, 37,
      [&](std::size_t i) {
        all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
        order.push_back(i);
      },
      0, 1);
  EXPECT_TRUE(all_on_caller);
  std::vector<std::size_t> expected(37);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(stats.workers, 1u);
}

TEST(ParallelFor, MeasuresIdleFromItsRunnersClocks) {
  // Two runners, two chunks of unequal length: the runner that finishes
  // first sits idle until the call ends, and that tail must be measured
  // idle, not an unaccounted remainder of workers x wall.
  ThreadPool pool(2);
  const std::array<std::chrono::milliseconds, 2> sleeps = {
      std::chrono::milliseconds(100), std::chrono::milliseconds(300)};
  std::array<double, 2> slept{};
  const PoolStats stats = parallel_for(
      pool, sleeps.size(),
      [&](std::size_t i) {
        const auto start = std::chrono::steady_clock::now();
        std::this_thread::sleep_for(sleeps[i]);
        slept[i] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      },
      1, 2);
  ASSERT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.tasks, 2u);
  // A chunk's own bookkeeping (its span and counter updates) is busy time
  // the body's clock does not see; allow for it and for a preempted
  // runner on a loaded host.
  constexpr double kSlack = 10e-3;
  const double slept_total = slept[0] + slept[1];
  EXPECT_GE(stats.busy_seconds, slept_total);
  EXPECT_LE(stats.busy_seconds, slept_total + kSlack);
  EXPECT_GE(stats.idle_seconds + kSlack, std::abs(slept[1] - slept[0]));
  EXPECT_GE(stats.wait_seconds, 0.0);
  EXPECT_LE(stats.wait_seconds, stats.idle_seconds);
  EXPECT_GE(stats.wall_seconds, std::max(slept[0], slept[1]));
  const double capacity = 2.0 * stats.wall_seconds;
  EXPECT_LE(std::abs(capacity - stats.busy_seconds - stats.idle_seconds),
            obs::residual_tolerance(capacity));
}

TEST(ParallelFor, InlineCallIsOneWorkerBusyForItsWholeWall) {
  ThreadPool pool(4);
  const PoolStats stats = parallel_for(
      pool, 3,
      [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      },
      0, 1);
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_GE(stats.wall_seconds, 0.006);
  EXPECT_DOUBLE_EQ(stats.busy_seconds, stats.wall_seconds);
  EXPECT_DOUBLE_EQ(stats.wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.idle_seconds, 0.0);
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

TEST(GlobalPool, NeverExceedsHardwareThreads) {
  // ctest also runs this with COLOC_JOBS=64: the pool is clamped to the
  // machine however many workers were asked for.
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_LE(global_pool().size(), hardware);
  EXPECT_EQ(global_pool().size(), std::min(configured_jobs(), hardware));
}

/// Sets COLOC_JOBS for one scope and restores the previous value.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* old = std::getenv("COLOC_JOBS")) saved_ = old;
    ::setenv("COLOC_JOBS", value, 1);
  }
  ~ScopedJobsEnv() {
    if (saved_) {
      ::setenv("COLOC_JOBS", saved_->c_str(), 1);
    } else {
      ::unsetenv("COLOC_JOBS");
    }
  }
  ScopedJobsEnv(const ScopedJobsEnv&) = delete;
  ScopedJobsEnv& operator=(const ScopedJobsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(ConfiguredJobs, RejectsEnvValuesThatAreNotWholeNonNegativeIntegers) {
  // configured_jobs() only reads the variable; no pool is sized from it.
  for (const char* bad : {"abc", "-1", "-2", "2.5", "+3", " 4", "4x",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    ScopedJobsEnv env(bad);
    try {
      configured_jobs();
      ADD_FAILURE() << "COLOC_JOBS=" << bad << " was accepted";
    } catch (const invalid_argument_error& e) {
      EXPECT_NE(std::string(e.what()).find("COLOC_JOBS"), std::string::npos)
          << e.what();
    }
  }
  {
    ScopedJobsEnv env("3");
    EXPECT_EQ(configured_jobs(), 3u);
  }
  {
    // A large but well-formed count is taken as asked; global_pool()
    // clamps it to the hardware threads.
    ScopedJobsEnv env("1000000");
    EXPECT_EQ(configured_jobs(), 1000000u);
  }
}

TEST(ConfiguredJobs, JobsFlagRejectsAnythingButAWholeNonNegativeInteger) {
  for (const char* bad : {"--jobs=-1", "--jobs=abc", "--jobs=2.5",
                          "--jobs=", "--jobs"}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"prog", bad};
    const CliArgs args(2, argv);
    try {
      apply_jobs_flag(args);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const invalid_argument_error& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
          << e.what();
    }
  }
  const char* absent[] = {"prog"};
  EXPECT_EQ(apply_jobs_flag(CliArgs(1, absent)), 0u);
  const char* three[] = {"prog", "--jobs=3"};
  EXPECT_EQ(apply_jobs_flag(CliArgs(2, three)), 3u);
  EXPECT_EQ(configured_jobs(), 3u);
  set_configured_jobs(0);
}

}  // namespace
}  // namespace coloc
