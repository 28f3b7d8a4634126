#include "sim/execution.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace coloc::sim {
namespace {

ApplicationSpec fast_app(const std::string& name, std::size_t ws,
                         double compulsory) {
  ApplicationSpec a;
  a.name = name;
  a.instructions = 200e9;
  a.cpi_base = 0.7;
  a.refs_per_instruction = 0.02;
  a.mlp = 2.5;
  a.compulsory_misses_per_instruction = compulsory;
  Phase p;
  p.working_set_lines = ws;
  p.mix = {.hot_cold = 0.7, .pointer = 0.3};
  a.trace.phases = {p};
  a.trace.name = name;
  a.profile_references = 150'000;
  return a;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : hungry_(fast_app("hungry", 400'000, 5e-3)),
        quiet_(fast_app("quiet", 2'000, 1e-6)),
        simulator_(xeon_e5649(), &library_) {}

  AppMrcLibrary library_;
  ApplicationSpec hungry_;
  ApplicationSpec quiet_;
  Simulator simulator_;
};

TEST_F(SimulatorTest, BaselineRunProducesCounters) {
  const RunMeasurement m = simulator_.run_alone(hungry_, 0);
  EXPECT_EQ(m.target, "hungry");
  EXPECT_EQ(m.num_coapps, 0u);
  EXPECT_GT(m.execution_time_s, 0.0);
  EXPECT_DOUBLE_EQ(
      m.counters.get(PresetEvent::kTotalInstructions), 200e9);
  EXPECT_GT(m.counters.get(PresetEvent::kLlcMisses), 0.0);
  EXPECT_GE(m.counters.get(PresetEvent::kLlcAccesses),
            m.counters.get(PresetEvent::kLlcMisses) * 0.99);
}

TEST_F(SimulatorTest, MeasurementsAreReproducible) {
  const RunMeasurement a = simulator_.run_alone(hungry_, 0, 3);
  const RunMeasurement b = simulator_.run_alone(hungry_, 0, 3);
  EXPECT_DOUBLE_EQ(a.execution_time_s, b.execution_time_s);
  EXPECT_DOUBLE_EQ(a.counters.get(PresetEvent::kLlcMisses),
                   b.counters.get(PresetEvent::kLlcMisses));
}

TEST_F(SimulatorTest, RepetitionsVaryOnlyByNoise) {
  const RunMeasurement a = simulator_.run_alone(hungry_, 0, 0);
  const RunMeasurement b = simulator_.run_alone(hungry_, 0, 1);
  EXPECT_NE(a.execution_time_s, b.execution_time_s);
  EXPECT_DOUBLE_EQ(a.true_execution_time_s, b.true_execution_time_s);
  // Noise is ~1%: measured values stay within a few percent.
  EXPECT_NEAR(a.execution_time_s / b.execution_time_s, 1.0, 0.1);
}

TEST_F(SimulatorTest, CoLocationSlowsTargetDown) {
  const RunMeasurement alone = simulator_.run_alone(hungry_, 0);
  const std::vector<ApplicationSpec> coapps(3, hungry_);
  const RunMeasurement crowded =
      simulator_.run_colocated(hungry_, coapps, 0);
  EXPECT_GT(crowded.true_execution_time_s, alone.true_execution_time_s);
  EXPECT_EQ(crowded.num_coapps, 3u);
}

TEST_F(SimulatorTest, QuietCoRunnersBarelyHurt) {
  const RunMeasurement alone = simulator_.run_alone(hungry_, 0);
  const std::vector<ApplicationSpec> coapps(3, quiet_);
  const RunMeasurement crowded =
      simulator_.run_colocated(hungry_, coapps, 0);
  EXPECT_LT(crowded.true_execution_time_s / alone.true_execution_time_s,
            1.05);
}

TEST_F(SimulatorTest, LowerPStateRunsSlower) {
  const RunMeasurement fast = simulator_.run_alone(quiet_, 0);
  const RunMeasurement slow =
      simulator_.run_alone(quiet_, simulator_.machine().pstates.size() - 1);
  EXPECT_GT(slow.true_execution_time_s, fast.true_execution_time_s);
  EXPECT_LT(fast.frequency_ghz, 2.54);
  EXPECT_GT(fast.frequency_ghz, slow.frequency_ghz);
}

TEST_F(SimulatorTest, CpuBoundScalesInverselyWithFrequency) {
  // A CPU-bound app's time should scale ~1/f across P-states.
  const RunMeasurement fast = simulator_.run_alone(quiet_, 0);
  const RunMeasurement slow =
      simulator_.run_alone(quiet_, simulator_.machine().pstates.size() - 1);
  const double freq_ratio = fast.frequency_ghz / slow.frequency_ghz;
  const double time_ratio =
      slow.true_execution_time_s / fast.true_execution_time_s;
  EXPECT_NEAR(time_ratio, freq_ratio, 0.05 * freq_ratio);
}

TEST_F(SimulatorTest, TooManyCoAppsThrows) {
  const std::vector<ApplicationSpec> coapps(6, quiet_);  // 7 total > 6 cores
  EXPECT_THROW(simulator_.run_colocated(hungry_, coapps, 0),
               coloc::runtime_error);
}

TEST_F(SimulatorTest, BadPStateThrows) {
  EXPECT_THROW(simulator_.run_alone(hungry_, 99), coloc::runtime_error);
}

TEST_F(SimulatorTest, NoNoiseModeIsExact) {
  MeasurementOptions options;
  options.time_noise_sigma = 0.0;
  options.counter_noise_sigma = 0.0;
  Simulator exact(xeon_e5649(), &library_, options);
  const RunMeasurement m = exact.run_alone(hungry_, 0);
  EXPECT_DOUBLE_EQ(m.execution_time_s, m.true_execution_time_s);
}

TEST_F(SimulatorTest, SolveExposesRawSolution) {
  // Apps align with input order: an app's LLC accesses per instruction
  // depend on that app alone, so they identify which app sits where.
  const double private_lines =
      static_cast<double>(simulator_.machine().private_lines());
  auto accesses = [&](const ApplicationSpec& app) {
    return app.refs_per_instruction *
               library_.curve(app).miss_ratio(private_lines) +
           app.compulsory_misses_per_instruction;
  };
  ASSERT_NE(accesses(hungry_), accesses(quiet_));
  for (const auto& [first, second] : {std::pair{&hungry_, &quiet_},
                                      std::pair{&quiet_, &hungry_}}) {
    const auto s = simulator_.solve({*first, *second}, 0);
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->apps.size(), 2u);
    EXPECT_EQ(s->apps[0].accesses_per_instruction, accesses(*first));
    EXPECT_EQ(s->apps[1].accesses_per_instruction, accesses(*second));
    EXPECT_TRUE(s->converged);
  }
}

TEST_F(SimulatorTest, MemoryIntensityMatchesCounters) {
  const RunMeasurement m = simulator_.run_alone(hungry_, 0);
  EXPECT_DOUBLE_EQ(m.memory_intensity(),
                   m.counters.get(PresetEvent::kLlcMisses) / 200e9);
}

TEST(CounterSetTest, DerivedRatios) {
  CounterSet c;
  c.set(PresetEvent::kTotalInstructions, 1000.0);
  c.set(PresetEvent::kLlcMisses, 10.0);
  c.set(PresetEvent::kLlcAccesses, 40.0);
  EXPECT_DOUBLE_EQ(c.memory_intensity(), 0.01);
  EXPECT_DOUBLE_EQ(c.cm_per_ca(), 0.25);
  EXPECT_DOUBLE_EQ(c.ca_per_ins(), 0.04);
}

TEST(CounterSetTest, ZeroDenominatorsGiveZero) {
  CounterSet c;
  EXPECT_DOUBLE_EQ(c.memory_intensity(), 0.0);
  EXPECT_DOUBLE_EQ(c.cm_per_ca(), 0.0);
  EXPECT_DOUBLE_EQ(c.ca_per_ins(), 0.0);
}

TEST(CounterSetTest, PresetNames) {
  EXPECT_EQ(to_string(PresetEvent::kTotalInstructions), "PAPI_TOT_INS");
  EXPECT_EQ(to_string(PresetEvent::kLlcMisses), "PAPI_L3_TCM");
}

TEST(SimulatorConstruction, NullLibraryRejected) {
  EXPECT_THROW(Simulator(xeon_e5649(), nullptr), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::sim
