#include "fault/resilient_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace coloc::fault {
namespace {

sim::RunMeasurement good_measurement(double time_s = 10.0) {
  sim::RunMeasurement m;
  m.execution_time_s = time_s;
  m.counters.set(sim::PresetEvent::kTotalInstructions, 1e9);
  m.counters.set(sim::PresetEvent::kTotalCycles, 2e9);
  m.counters.set(sim::PresetEvent::kLlcMisses, 1e6);
  m.counters.set(sim::PresetEvent::kLlcAccesses, 1e7);
  return m;
}

RetryPolicy fast_policy(std::size_t max_attempts = 4) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_backoff_ms = 0.1;
  policy.max_backoff_ms = 1.0;
  policy.deadline_ms = 2000.0;
  return policy;
}

TEST(ValidateMeasurement, AcceptsHealthyReading) {
  EXPECT_NO_THROW(validate_measurement(good_measurement(), 8.0));
}

TEST(ValidateMeasurement, RejectsNonFiniteWallTime) {
  sim::RunMeasurement m = good_measurement();
  m.execution_time_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_measurement(m, 0.0), MeasurementError);
  m.execution_time_s = -3.0;
  EXPECT_THROW(validate_measurement(m, 0.0), MeasurementError);
}

TEST(ValidateMeasurement, RejectsNegativeCounter) {
  sim::RunMeasurement m = good_measurement();
  m.counters.set(sim::PresetEvent::kLlcMisses, -1.0);
  EXPECT_THROW(validate_measurement(m, 0.0), MeasurementError);
}

TEST(ValidateMeasurement, RejectsZeroInstructionCount) {
  sim::RunMeasurement m = good_measurement();
  m.counters.set(sim::PresetEvent::kTotalInstructions, 0.0);
  EXPECT_THROW(validate_measurement(m, 0.0), MeasurementError);
}

TEST(ValidateMeasurement, RejectsImplausibleSlowdown) {
  const sim::RunMeasurement m = good_measurement(10.0);
  // Slowdown 100x against a 0.1 s reference: outlier territory.
  EXPECT_THROW(validate_measurement(m, 0.1), MeasurementError);
  // Speedup below kMinPlausibleSlowdown: equally implausible.
  EXPECT_THROW(validate_measurement(m, 100.0), MeasurementError);
}

TEST(ValidateMeasurement, ZeroReferenceDisablesPlausibility) {
  EXPECT_NO_THROW(validate_measurement(good_measurement(), 0.0));
}

TEST(ValidateMeasurement, ClassifiesAsCorruptedData) {
  sim::RunMeasurement m = good_measurement();
  m.execution_time_s = std::numeric_limits<double>::infinity();
  try {
    validate_measurement(m, 0.0);
    FAIL() << "expected MeasurementError";
  } catch (const MeasurementError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kCorruptedData);
  }
}

TEST(ResilientRunner, SucceedsFirstAttempt) {
  ResilientRunner runner(fast_policy());
  const auto result = runner.measure_cell(
      "a|b|x1|p0", 0.0, [](std::uint64_t) { return good_measurement(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->execution_time_s, 10.0);
  EXPECT_EQ(runner.report().cells_attempted, 1u);
  EXPECT_EQ(runner.report().cells_ok, 1u);
  EXPECT_EQ(runner.report().retries, 0u);
}

TEST(ResilientRunner, RetriesTransientFaultsWithFreshAttemptNumber) {
  ResilientRunner runner(fast_policy());
  std::vector<std::uint64_t> attempts;
  const auto result = runner.measure_cell(
      "a|b|x1|p0", 0.0, [&attempts](std::uint64_t attempt) {
        attempts.push_back(attempt);
        if (attempt < 2) {
          throw MeasurementError(ErrorClass::kTransient, "flaky");
        }
        return good_measurement();
      });
  ASSERT_TRUE(result.has_value());
  // The attempt number is forwarded so retries draw fresh noise.
  EXPECT_EQ(attempts, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(runner.report().retries, 2u);
  EXPECT_EQ(runner.report().transient_faults, 2u);
  EXPECT_EQ(runner.report().cells_ok, 1u);
}

TEST(ResilientRunner, RetriesCorruptedReadings) {
  ResilientRunner runner(fast_policy());
  const auto result = runner.measure_cell(
      "a|b|x1|p0", 0.0, [](std::uint64_t attempt) {
        sim::RunMeasurement m = good_measurement();
        if (attempt == 0) {
          m.execution_time_s = std::numeric_limits<double>::quiet_NaN();
        }
        return m;
      });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(runner.report().corrupted_readings, 1u);
  EXPECT_EQ(runner.report().retries, 1u);
}

TEST(ResilientRunner, QuarantinesAfterExhaustingAttempts) {
  ResilientRunner runner(fast_policy(3));
  std::size_t calls = 0;
  const auto result = runner.measure_cell(
      "bad|cell|x1|p0", 0.0, [&calls](std::uint64_t) -> sim::RunMeasurement {
        ++calls;
        throw MeasurementError(ErrorClass::kTransient, "always down");
      });
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(calls, 3u);
  const CompletenessReport& report = runner.report();
  EXPECT_EQ(report.cells_quarantined, 1u);
  EXPECT_EQ(report.cells_ok, 0u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].tag, "bad|cell|x1|p0");
  EXPECT_EQ(report.quarantined[0].attempts, 3u);
  EXPECT_NE(report.quarantined[0].reason.find("always down"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(report.completeness(), 0.0);
}

TEST(ResilientRunner, PermanentErrorQuarantinesImmediately) {
  ResilientRunner runner(fast_policy(5));
  std::size_t calls = 0;
  const auto result = runner.measure_cell(
      "a|b|x1|p0", 0.0, [&calls](std::uint64_t) -> sim::RunMeasurement {
        ++calls;
        throw MeasurementError(ErrorClass::kPermanent, "no such app");
      });
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(calls, 1u) << "permanent failures must not be retried";
  EXPECT_EQ(runner.report().retries, 0u);
  EXPECT_EQ(runner.report().cells_quarantined, 1u);
}

TEST(ResilientRunner, UnknownExceptionTreatedAsPermanent) {
  ResilientRunner runner(fast_policy(5));
  std::size_t calls = 0;
  const auto result = runner.measure_cell(
      "a|b|x1|p0", 0.0, [&calls](std::uint64_t) -> sim::RunMeasurement {
        ++calls;
        throw std::logic_error("programming bug, not a measurement fault");
      });
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(calls, 1u);
}

TEST(ResilientRunner, DeadlineOverrunCancelsAndRetries) {
  RetryPolicy policy = fast_policy(3);
  policy.deadline_ms = 60.0;
  ResilientRunner runner(policy);
  const auto result = runner.measure_cell(
      "slow|cell|x1|p0", 0.0, [](std::uint64_t attempt) {
        if (attempt == 0) {
          // Cooperative hang: spin until the attempt's deadline passes.
          const auto give_up = std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
          while (!DeadlineScope::current_expired() &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          throw MeasurementError(ErrorClass::kTransient, "cancelled");
        }
        return good_measurement();
      });
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(runner.report().deadline_overruns, 1u);
}

TEST(ResilientRunner, LateReadingCountsAsOverrunNotSuccess) {
  // An attempt that ignores its deadline and still returns a valid
  // reading is an overrun: the late reading is discarded and retried.
  RetryPolicy policy = fast_policy(2);
  policy.deadline_ms = 100.0;
  ResilientRunner runner(policy);
  std::vector<std::uint64_t> attempts;
  const auto result = runner.measure_cell(
      "late|cell|x1|p0", 0.0, [&attempts](std::uint64_t attempt) {
        attempts.push_back(attempt);
        if (attempt == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
          return good_measurement(99.0);
        }
        return good_measurement();
      });
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->execution_time_s, 10.0);
  EXPECT_EQ(attempts, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(runner.report().deadline_overruns, 1u);
  EXPECT_EQ(runner.report().retries, 1u);
}

TEST(DeadlineScope, NestsExpiresAndRestores) {
  using Clock = std::chrono::steady_clock;
  EXPECT_FALSE(DeadlineScope::current_expired()) << "no scope: never expired";
  {
    DeadlineScope outer(Clock::now() - std::chrono::milliseconds(1));
    EXPECT_TRUE(DeadlineScope::current_expired());
    {
      DeadlineScope inner(Clock::now() + std::chrono::hours(1));
      EXPECT_FALSE(DeadlineScope::current_expired())
          << "the innermost scope's deadline applies";
    }
    EXPECT_TRUE(DeadlineScope::current_expired())
        << "inner scope exit restores the outer deadline";
  }
  EXPECT_FALSE(DeadlineScope::current_expired())
      << "outer scope exit restores the empty state";
  {
    DeadlineScope scope(Clock::now() + std::chrono::milliseconds(100));
    EXPECT_FALSE(DeadlineScope::current_expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_TRUE(DeadlineScope::current_expired()) << "expires with time";
  }
  bool other_thread_expired = true;
  {
    DeadlineScope scope(Clock::now() - std::chrono::milliseconds(1));
    std::thread([&other_thread_expired] {
      other_thread_expired = DeadlineScope::current_expired();
    }).join();
  }
  EXPECT_FALSE(other_thread_expired) << "a scope is per thread";
}

TEST(ResilientRunner, AccountsResumedAndSkippedCells) {
  ResilientRunner runner(fast_policy());
  runner.note_resumed_cell();
  runner.note_resumed_cell();
  runner.note_skipped_cell("gone|cell|x1|p0", "baseline quarantined");
  const CompletenessReport& report = runner.report();
  EXPECT_EQ(report.cells_attempted, 3u);
  EXPECT_EQ(report.cells_resumed, 2u);
  EXPECT_EQ(report.cells_quarantined, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].attempts, 0u);
  EXPECT_NEAR(report.completeness(), 2.0 / 3.0, 1e-12);
}

TEST(ResilientRunner, MeasureOutcomeIsPureAndCommitFoldsExplicitly) {
  ResilientRunner runner(fast_policy());
  auto flaky_once = [](std::uint64_t attempt) -> sim::RunMeasurement {
    if (attempt == 0) {
      throw MeasurementError(ErrorClass::kTransient, "flaky first read");
    }
    return good_measurement();
  };
  const CellOutcome first = runner.measure_outcome("a|b|x1|p0", 0.0,
                                                   flaky_once);
  const CellOutcome second = runner.measure_outcome("a|b|x1|p0", 0.0,
                                                    flaky_once);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.measurement->execution_time_s,
            second.measurement->execution_time_s);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.retries, 1u);
  EXPECT_EQ(first.transient_faults, 1u);
  EXPECT_EQ(runner.report().cells_attempted, 0u)
      << "measure_outcome must not touch the shared report";

  const auto committed = runner.commit_outcome("a|b|x1|p0", first);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(runner.report().cells_attempted, 1u);
  EXPECT_EQ(runner.report().cells_ok, 1u);
  EXPECT_EQ(runner.report().retries, 1u);
}

TEST(ResilientRunner, ConcurrentCellsAccountExactly) {
  // Many cells measured at once from a worker pool (the parallel
  // campaign's usage); tallies must come out exact, not approximately —
  // this test doubles as the TSan coverage for the concurrent runner.
  constexpr int kCells = 24;
  ResilientRunner runner(fast_policy());
  ThreadPool pool(4);
  std::vector<std::future<void>> inflight;
  std::atomic<int> ok{0};
  for (int i = 0; i < kCells; ++i) {
    inflight.push_back(pool.submit([&runner, &ok, i] {
      const std::string tag = "cell" + std::to_string(i) + "|co|x1|p0";
      const auto result = runner.measure_cell(
          tag, 0.0, [i](std::uint64_t attempt) {
            if (i % 3 == 0 && attempt == 0) {
              throw MeasurementError(ErrorClass::kTransient, "flaky");
            }
            return good_measurement();
          });
      if (result.has_value()) ok.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : inflight) f.get();
  EXPECT_EQ(ok.load(), kCells);
  const CompletenessReport& report = runner.report();
  EXPECT_EQ(report.cells_attempted, static_cast<std::size_t>(kCells));
  EXPECT_EQ(report.cells_ok, static_cast<std::size_t>(kCells));
  EXPECT_EQ(report.cells_quarantined, 0u);
  EXPECT_EQ(report.retries, 8u);           // cells 0,3,...,21
  EXPECT_EQ(report.transient_faults, 8u);
}

TEST(ResilientRunner, CompletenessReportSummarizes) {
  ResilientRunner runner(fast_policy());
  runner.measure_cell("ok|cell|x1|p0", 0.0,
                      [](std::uint64_t) { return good_measurement(); });
  const std::string summary = runner.report().summary();
  EXPECT_NE(summary.find("completeness 100"), std::string::npos);
  EXPECT_NE(summary.find("1 measured"), std::string::npos);
}

TEST(ResilientRunner, EmptyReportIsFullyComplete) {
  const CompletenessReport report;
  EXPECT_DOUBLE_EQ(report.completeness(), 1.0);
}

TEST(ResilientRunner, RejectsDegenerateConfiguration) {
  RetryPolicy no_attempts;
  no_attempts.max_attempts = 0;
  EXPECT_THROW(ResilientRunner{no_attempts}, coloc::runtime_error);
  for (double bad : {0.0, -5.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    RetryPolicy no_deadline;
    no_deadline.deadline_ms = bad;
    EXPECT_THROW(ResilientRunner{no_deadline}, coloc::runtime_error) << bad;
  }
}

class RetryEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("COLOC_CELL_DEADLINE_MS");
    ::unsetenv("COLOC_MAX_ATTEMPTS");
  }
};

TEST_F(RetryEnvTest, HonorsEnvironmentOverrides) {
  ::setenv("COLOC_CELL_DEADLINE_MS", "123", 1);
  ::setenv("COLOC_MAX_ATTEMPTS", "7", 1);
  const RetryPolicy policy = RetryPolicy::from_env();
  EXPECT_DOUBLE_EQ(policy.deadline_ms, 123.0);
  EXPECT_EQ(policy.max_attempts, 7u);
  ::setenv("COLOC_CELL_DEADLINE_MS", "2.5", 1);
  EXPECT_DOUBLE_EQ(RetryPolicy::from_env().deadline_ms, 2.5);
}

TEST_F(RetryEnvTest, DefaultsWhenUnset) {
  const RetryPolicy policy = RetryPolicy::from_env();
  EXPECT_DOUBLE_EQ(policy.deadline_ms, RetryPolicy{}.deadline_ms);
  EXPECT_EQ(policy.max_attempts, RetryPolicy{}.max_attempts);
}

void expect_rejected_naming(const char* name) {
  try {
    RetryPolicy::from_env();
    ADD_FAILURE() << "expected rejection of " << name << "="
                  << std::getenv(name);
  } catch (const coloc::invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << e.what();
  }
}

TEST_F(RetryEnvTest, RejectsAttemptsThatAreNotPositiveIntegers) {
  for (const char* bad : {"abc", "-1", "2.5", "inf", "0", "1e30"}) {
    ::setenv("COLOC_MAX_ATTEMPTS", bad, 1);
    expect_rejected_naming("COLOC_MAX_ATTEMPTS");
  }
}

TEST_F(RetryEnvTest, RejectsDeadlinesThatAreNotFinitePositiveOrDoNotFit) {
  for (const char* bad : {"abc", "-1", "0", "inf", "nan", "1e300"}) {
    ::setenv("COLOC_CELL_DEADLINE_MS", bad, 1);
    expect_rejected_naming("COLOC_CELL_DEADLINE_MS");
  }
}

}  // namespace
}  // namespace coloc::fault
