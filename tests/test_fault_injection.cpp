#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/resilient_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/execution.hpp"
#include "test_helpers.hpp"

namespace coloc::fault {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

FaultPlanConfig config_with(double rate, std::uint64_t seed = 1234) {
  FaultPlanConfig config;
  config.rate = rate;
  config.seed = seed;
  return config;
}

std::vector<std::string> sample_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("app" + std::to_string(i % 11) + "|cg|x" +
                   std::to_string(1 + i % 3) + "|p" + std::to_string(i));
  }
  return keys;
}

TEST(FaultPlan, DeterministicUnderFixedSeed) {
  const FaultPlan a(config_with(0.3, 42));
  const FaultPlan b(config_with(0.3, 42));
  for (const std::string& key : sample_keys(500)) {
    for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.decide(key, attempt), b.decide(key, attempt))
          << key << " attempt " << attempt;
      EXPECT_DOUBLE_EQ(a.outlier_factor(key, attempt),
                       b.outlier_factor(key, attempt));
      EXPECT_EQ(a.corruption_variant(key, attempt, 4),
                b.corruption_variant(key, attempt, 4));
    }
  }
}

TEST(FaultPlan, DifferentSeedsGiveDifferentPlans) {
  const FaultPlan a(config_with(0.3, 1));
  const FaultPlan b(config_with(0.3, 2));
  std::size_t differing = 0;
  for (const std::string& key : sample_keys(500)) {
    if (a.decide(key, 0) != b.decide(key, 0)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultPlan, ZeroRateNeverFaults) {
  const FaultPlan plan(config_with(0.0));
  EXPECT_FALSE(plan.enabled());
  for (const std::string& key : sample_keys(200)) {
    EXPECT_EQ(plan.decide(key, 0), FaultKind::kNone);
  }
}

TEST(FaultPlan, UnitRateAlwaysFaults) {
  const FaultPlan plan(config_with(1.0));
  for (const std::string& key : sample_keys(200)) {
    EXPECT_NE(plan.decide(key, 0), FaultKind::kNone);
  }
}

TEST(FaultPlan, EmpiricalRateTracksConfiguredRate) {
  const double rate = 0.2;
  const FaultPlan plan(config_with(rate, 7));
  const auto keys = sample_keys(4000);
  std::size_t faults = 0;
  for (const std::string& key : keys) {
    if (plan.decide(key, 0) != FaultKind::kNone) ++faults;
  }
  const double observed = static_cast<double>(faults) /
                          static_cast<double>(keys.size());
  EXPECT_NEAR(observed, rate, 0.03);
}

TEST(FaultPlan, RetriesDrawIndependentDecisions) {
  // A transient fault on attempt 0 must be able to clear on attempt 1;
  // with rate 0.5 over many keys both transitions must occur.
  const FaultPlan plan(config_with(0.5, 9));
  bool cleared = false;
  bool refired = false;
  for (const std::string& key : sample_keys(500)) {
    const bool f0 = plan.decide(key, 0) != FaultKind::kNone;
    const bool f1 = plan.decide(key, 1) != FaultKind::kNone;
    if (f0 && !f1) cleared = true;
    if (f0 && f1) refired = true;
  }
  EXPECT_TRUE(cleared);
  EXPECT_TRUE(refired);
}

TEST(FaultPlan, KindFilterRestrictsInjection) {
  FaultPlanConfig config = config_with(1.0);
  config.kinds = {FaultKind::kTransient};
  const FaultPlan plan(config);
  for (const std::string& key : sample_keys(200)) {
    EXPECT_EQ(plan.decide(key, 0), FaultKind::kTransient);
  }
}

TEST(FaultPlan, DefaultKindSetExcludesHangs) {
  const FaultPlan plan(config_with(1.0));
  for (const std::string& key : sample_keys(500)) {
    EXPECT_NE(plan.decide(key, 0), FaultKind::kHang);
  }
}

TEST(FaultPlan, OutlierFactorStaysInConfiguredRange) {
  const FaultPlan plan(config_with(1.0));
  for (const std::string& key : sample_keys(200)) {
    const double f = plan.outlier_factor(key, 0);
    EXPECT_GE(f, kOutlierMinFactor);
    EXPECT_LE(f, kOutlierMaxFactor);
  }
}

TEST(FaultPlan, RejectsOutOfRangeRate) {
  EXPECT_THROW(FaultPlan(config_with(1.5)), coloc::runtime_error);
  EXPECT_THROW(FaultPlan(config_with(-0.1)), coloc::runtime_error);
}

TEST(ParseFaultKinds, ParsesFullList) {
  const auto kinds = parse_fault_kinds("transient, corrupt,outlier,hang");
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], FaultKind::kTransient);
  EXPECT_EQ(kinds[1], FaultKind::kCorruptedReading);
  EXPECT_EQ(kinds[2], FaultKind::kOutlierNoise);
  EXPECT_EQ(kinds[3], FaultKind::kHang);
}

TEST(ParseFaultKinds, RejectsUnknownKind) {
  EXPECT_THROW(parse_fault_kinds("transient,gremlin"),
               coloc::invalid_argument_error);
}

TEST(ValidateFaultRate, AcceptsUnitInterval) {
  EXPECT_EQ(validate_fault_rate(0.0, "--fault-rate"), 0.0);
  EXPECT_EQ(validate_fault_rate(1.0, "--fault-rate"), 1.0);
  EXPECT_EQ(validate_fault_rate(0.25, "--fault-rate"), 0.25);
}

TEST(ValidateFaultRate, RejectsOutOfRangeNamingOrigin) {
  for (double bad : {-0.1, 1.0001, 42.0,
                     std::numeric_limits<double>::quiet_NaN()}) {
    try {
      validate_fault_rate(bad, "--fault-rate");
      FAIL() << "expected rejection of " << bad;
    } catch (const coloc::invalid_argument_error& e) {
      EXPECT_NE(std::string(e.what()).find("--fault-rate"),
                std::string::npos);
    }
  }
}

class FaultEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name :
         {"COLOC_FAULT_RATE", "COLOC_FAULT_SEED", "COLOC_FAULT_KINDS",
          "COLOC_FAULT_HANG_MS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(FaultEnvTest, ReadsConfigurationFromEnvironment) {
  ::setenv("COLOC_FAULT_RATE", "0.25", 1);
  ::setenv("COLOC_FAULT_SEED", "99", 1);
  ::setenv("COLOC_FAULT_KINDS", "transient,corrupt", 1);
  const FaultPlanConfig config = FaultPlanConfig::from_env();
  EXPECT_DOUBLE_EQ(config.rate, 0.25);
  EXPECT_EQ(config.seed, 99u);
  ASSERT_EQ(config.kinds.size(), 2u);
}

TEST_F(FaultEnvTest, UnsetEnvironmentKeepsDefaults) {
  const FaultPlanConfig config = FaultPlanConfig::from_env();
  EXPECT_DOUBLE_EQ(config.rate, 0.0);
  EXPECT_EQ(config.seed, 1234u);
  EXPECT_TRUE(config.kinds.empty());
}

TEST_F(FaultEnvTest, RejectsUnparseableRate) {
  ::setenv("COLOC_FAULT_RATE", "lots", 1);
  EXPECT_THROW(FaultPlanConfig::from_env(), coloc::invalid_argument_error);
}

TEST_F(FaultEnvTest, RejectsOutOfRangeRate) {
  for (const char* bad : {"2.0", "-0.5", "nan"}) {
    ::setenv("COLOC_FAULT_RATE", bad, 1);
    EXPECT_THROW(FaultPlanConfig::from_env(), coloc::invalid_argument_error)
        << bad;
  }
}

TEST_F(FaultEnvTest, RejectsSeedThatIsNotANonNegativeInteger) {
  for (const char* bad : {"-1", "1.5", "seed", "99999999999999999999"}) {
    ::setenv("COLOC_FAULT_SEED", bad, 1);
    EXPECT_THROW(FaultPlanConfig::from_env(), coloc::invalid_argument_error)
        << bad;
  }
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest() : simulator_(tiny_machine(), &library_) {
    apps_ = tiny_suite();
  }

  sim::AppMrcLibrary library_;
  sim::Simulator simulator_;
  std::vector<sim::ApplicationSpec> apps_;
};

TEST_F(FaultInjectorTest, ZeroRateIsBitExactPassThrough) {
  const FaultPlan plan(config_with(0.0));
  FaultInjector injector(simulator_, plan);
  const sim::RunMeasurement direct = simulator_.run_alone(apps_[0], 0, 0);
  const sim::RunMeasurement wrapped = injector.run_alone(apps_[0], 0, 0);
  EXPECT_EQ(direct.execution_time_s, wrapped.execution_time_s);
  for (std::size_t e = 0; e < sim::kNumPresetEvents; ++e) {
    EXPECT_EQ(direct.counters.get(static_cast<sim::PresetEvent>(e)),
              wrapped.counters.get(static_cast<sim::PresetEvent>(e)));
  }
}

TEST_F(FaultInjectorTest, TransientFaultThrowsClassifiedError) {
  FaultPlanConfig config = config_with(1.0);
  config.kinds = {FaultKind::kTransient};
  const FaultPlan plan(config);
  FaultInjector injector(simulator_, plan);
  try {
    injector.run_colocated(apps_[0], {apps_[1]}, 0, 0);
    FAIL() << "expected MeasurementError";
  } catch (const MeasurementError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kTransient);
  }
  EXPECT_EQ(injector.injected(FaultKind::kTransient), 1u);
}

TEST_F(FaultInjectorTest, CorruptedReadingFailsValidation) {
  FaultPlanConfig config = config_with(1.0);
  config.kinds = {FaultKind::kCorruptedReading};
  const FaultPlan plan(config);
  FaultInjector injector(simulator_, plan);
  // Every corruption variant must be caught by at least one validator
  // check; sweep several cells to hit multiple variants.
  for (std::size_t p = 0; p < 3; ++p) {
    const sim::RunMeasurement m = injector.run_alone(apps_[0], p, 0);
    EXPECT_THROW(validate_measurement(m, 0.0), MeasurementError);
  }
  EXPECT_EQ(injector.injected(FaultKind::kCorruptedReading), 3u);
}

TEST_F(FaultInjectorTest, OutlierScalesWallTimeBeyondPlausibility) {
  FaultPlanConfig config = config_with(1.0);
  config.kinds = {FaultKind::kOutlierNoise};
  const FaultPlan plan(config);
  FaultInjector injector(simulator_, plan);
  const sim::RunMeasurement clean = simulator_.run_alone(apps_[0], 0, 0);
  const sim::RunMeasurement noisy = injector.run_alone(apps_[0], 0, 0);
  EXPECT_GE(noisy.execution_time_s,
            clean.execution_time_s * kOutlierMinFactor * 0.99);
  // The plausibility bound (reference = clean time) must catch it.
  EXPECT_THROW(validate_measurement(noisy, clean.execution_time_s),
               MeasurementError);
}

TEST_F(FaultInjectorTest, InjectionIsDeterministicAcrossInstances) {
  FaultPlanConfig config = config_with(0.5, 21);
  const FaultPlan plan(config);
  FaultInjector a(simulator_, plan);
  FaultInjector b(simulator_, plan);
  for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
    sim::RunMeasurement ma, mb;
    bool threw_a = false, threw_b = false;
    try {
      ma = a.run_colocated(apps_[0], {apps_[1], apps_[1]}, 1, attempt);
    } catch (const MeasurementError&) {
      threw_a = true;
    }
    try {
      mb = b.run_colocated(apps_[0], {apps_[1], apps_[1]}, 1, attempt);
    } catch (const MeasurementError&) {
      threw_b = true;
    }
    EXPECT_EQ(threw_a, threw_b) << "attempt " << attempt;
    if (!threw_a) {
      // A corrupted reading may be NaN on both sides; NaN != NaN, so
      // compare representations rather than values.
      EXPECT_TRUE(ma.execution_time_s == mb.execution_time_s ||
                  (std::isnan(ma.execution_time_s) &&
                   std::isnan(mb.execution_time_s)))
          << ma.execution_time_s << " vs " << mb.execution_time_s;
    }
  }
}

TEST(ErrorTaxonomy, ClassesRoundTripToStrings) {
  EXPECT_STREQ(to_string(ErrorClass::kTransient), "transient");
  EXPECT_STREQ(to_string(ErrorClass::kPermanent), "permanent");
  EXPECT_STREQ(to_string(ErrorClass::kCorruptedData), "corrupted-data");
  const MeasurementError e(ErrorClass::kTransient, "boom");
  EXPECT_EQ(e.error_class(), ErrorClass::kTransient);
  EXPECT_STREQ(e.what(), "boom");
  const data_error d("bad row");
  EXPECT_EQ(d.error_class(), ErrorClass::kCorruptedData);
}

}  // namespace
}  // namespace coloc::fault
