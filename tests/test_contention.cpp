#include "sim/contention.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace coloc::sim {
namespace {

// Controlled synthetic application: explicit MRC knots, no trace profiling.
struct TestApp {
  ApplicationSpec spec;
  MissRatioCurve mrc;

  ScheduledApp scheduled() const { return {&spec, &mrc}; }
};

TestApp memory_hog() {
  TestApp t;
  t.spec.name = "hog";
  t.spec.instructions = 100e9;
  t.spec.cpi_base = 0.8;
  t.spec.refs_per_instruction = 0.02;
  t.spec.mlp = 3.0;
  t.spec.compulsory_misses_per_instruction = 5e-3;
  // Steep MRC: misses a lot below ~100k lines.
  t.mrc = MissRatioCurve::from_points({1000, 10000, 100000, 1000000},
                                      {0.9, 0.6, 0.3, 0.05});
  return t;
}

TestApp cpu_bound() {
  TestApp t;
  t.spec.name = "cpu";
  t.spec.instructions = 100e9;
  t.spec.cpi_base = 0.6;
  t.spec.refs_per_instruction = 0.01;
  t.spec.mlp = 1.5;
  t.spec.compulsory_misses_per_instruction = 1e-6;
  // Fits in the private cache: never misses beyond it.
  t.mrc = MissRatioCurve::from_points({1000, 4096, 100000},
                                      {0.2, 0.0, 0.0});
  return t;
}

MachineConfig test_machine() {
  MachineConfig m = xeon_e5649();
  return m;
}

TEST(Contention, SingleAppGetsWholeLlc) {
  const TestApp hog = memory_hog();
  const ContentionSolution s =
      solve_contention(test_machine(), 2.5, {hog.scheduled()});
  ASSERT_EQ(s.apps.size(), 1u);
  EXPECT_NEAR(s.apps[0].llc_share_lines,
              static_cast<double>(test_machine().llc_lines()), 1.0);
  EXPECT_TRUE(s.converged);
}

TEST(Contention, SharesSumToLlcCapacity) {
  const TestApp a = memory_hog();
  const TestApp b = memory_hog();
  const TestApp c = cpu_bound();
  const ContentionSolution s = solve_contention(
      test_machine(), 2.5, {a.scheduled(), b.scheduled(), c.scheduled()});
  double total = 0.0;
  for (const auto& app : s.apps) total += app.llc_share_lines;
  EXPECT_NEAR(total, static_cast<double>(test_machine().llc_lines()),
              test_machine().llc_lines() * 1e-6);
}

TEST(Contention, HogTakesMoreCacheThanCpuBound) {
  const TestApp hog = memory_hog();
  const TestApp cpu = cpu_bound();
  const ContentionSolution s = solve_contention(
      test_machine(), 2.5, {hog.scheduled(), cpu.scheduled()});
  EXPECT_GT(s.apps[0].llc_share_lines, s.apps[1].llc_share_lines);
}

TEST(Contention, ExecutionTimeGrowsWithCoRunnerCount) {
  const TestApp target = memory_hog();
  std::vector<TestApp> runners;
  for (int i = 0; i < 5; ++i) runners.push_back(memory_hog());

  double prev_time = 0.0;
  for (std::size_t n = 0; n <= 5; ++n) {
    std::vector<ScheduledApp> apps = {target.scheduled()};
    for (std::size_t i = 0; i < n; ++i) apps.push_back(runners[i].scheduled());
    const ContentionSolution s = solve_contention(test_machine(), 2.5, apps);
    EXPECT_GT(s.apps[0].execution_time_s, prev_time);
    prev_time = s.apps[0].execution_time_s;
  }
}

TEST(Contention, CpuBoundBarelyDegrades) {
  const TestApp cpu = cpu_bound();
  std::vector<TestApp> hogs(5, memory_hog());
  const ContentionSolution alone =
      solve_contention(test_machine(), 2.5, {cpu.scheduled()});
  std::vector<ScheduledApp> apps = {cpu.scheduled()};
  for (auto& h : hogs) apps.push_back(h.scheduled());
  const ContentionSolution crowded =
      solve_contention(test_machine(), 2.5, apps);
  const double slowdown = crowded.apps[0].execution_time_s /
                          alone.apps[0].execution_time_s;
  EXPECT_LT(slowdown, 1.02);
  EXPECT_GE(slowdown, 1.0);
}

TEST(Contention, HigherFrequencyRunsFasterButDegradesMoreRelative) {
  const TestApp hog = memory_hog();
  std::vector<TestApp> hogs(5, memory_hog());

  auto slowdown_at = [&](double freq) {
    const ContentionSolution alone =
        solve_contention(test_machine(), freq, {hog.scheduled()});
    std::vector<ScheduledApp> apps = {hog.scheduled()};
    for (auto& h : hogs) apps.push_back(h.scheduled());
    const ContentionSolution crowded =
        solve_contention(test_machine(), freq, apps);
    return std::pair{alone.apps[0].execution_time_s,
                     crowded.apps[0].execution_time_s /
                         alone.apps[0].execution_time_s};
  };
  const auto [fast_alone, fast_slowdown] = slowdown_at(2.5);
  const auto [slow_alone, slow_slowdown] = slowdown_at(1.6);
  EXPECT_LT(fast_alone, slow_alone);
  // Memory stalls cost more cycles at higher frequency, so relative
  // degradation is worse at the fast P-state (the DVFS interplay the paper
  // folds into baseExTime-per-P-state).
  EXPECT_GT(fast_slowdown, slow_slowdown);
}

TEST(Contention, QueueingRaisesLatencyUnderLoad) {
  std::vector<TestApp> hogs(6, memory_hog());
  std::vector<ScheduledApp> apps;
  for (auto& h : hogs) apps.push_back(h.scheduled());
  const ContentionSolution s = solve_contention(test_machine(), 2.5, apps);
  EXPECT_GT(s.memory_latency_ns, test_machine().memory_latency_ns);
  EXPECT_GT(s.memory_utilization, 0.0);
  EXPECT_LT(s.memory_utilization, 1.0);
}

TEST(Contention, DisableQueueingAblation) {
  std::vector<TestApp> hogs(6, memory_hog());
  std::vector<ScheduledApp> apps;
  for (auto& h : hogs) apps.push_back(h.scheduled());
  ContentionOptions options;
  options.disable_queueing = true;
  const ContentionSolution s =
      solve_contention(test_machine(), 2.5, apps, options);
  EXPECT_NEAR(s.memory_latency_ns, test_machine().memory_latency_ns, 1e-6);
}

TEST(Contention, StaticPartitionAblationGivesEqualShares) {
  const TestApp a = memory_hog();
  const TestApp b = cpu_bound();
  ContentionOptions options;
  options.static_equal_partition = true;
  const ContentionSolution s = solve_contention(
      test_machine(), 2.5, {a.scheduled(), b.scheduled()}, options);
  EXPECT_NEAR(s.apps[0].llc_share_lines, s.apps[1].llc_share_lines, 1.0);
}

TEST(Contention, CountersAreConsistent) {
  const TestApp hog = memory_hog();
  const ContentionSolution s =
      solve_contention(test_machine(), 2.0, {hog.scheduled()});
  const AppSolution& a = s.apps[0];
  // Misses cannot exceed accesses; CPI >= base; time = NI * CPI / f.
  EXPECT_LE(a.misses_per_instruction, a.accesses_per_instruction + 1e-12);
  EXPECT_GE(a.cpi, hog.spec.cpi_base);
  EXPECT_NEAR(a.execution_time_s,
              hog.spec.instructions * a.cpi / (2.0e9), 1e-6);
}

TEST(Contention, RejectsBadInput) {
  const TestApp hog = memory_hog();
  EXPECT_THROW(solve_contention(test_machine(), 2.5, {}),
               coloc::runtime_error);
  EXPECT_THROW(solve_contention(test_machine(), 0.0, {hog.scheduled()}),
               coloc::runtime_error);
  ScheduledApp null_app{nullptr, nullptr};
  EXPECT_THROW(solve_contention(test_machine(), 2.5, {null_app}),
               coloc::runtime_error);
  std::vector<ScheduledApp> too_many(7, hog.scheduled());
  EXPECT_THROW(solve_contention(test_machine(), 2.5, too_many),
               coloc::runtime_error);
}

TEST(Contention, DegradationMonotoneInCoRunnerIntensity) {
  // Property: a hungrier co-runner never makes the target run faster.
  const TestApp target = memory_hog();
  double prev_time = 0.0;
  for (double comp : {1e-6, 1e-4, 1e-3, 5e-3, 2e-2}) {
    TestApp co = memory_hog();
    co.spec.name = "co";
    co.spec.compulsory_misses_per_instruction = comp;
    const ContentionSolution s = solve_contention(
        test_machine(), 2.5, {target.scheduled(), co.scheduled()});
    EXPECT_GE(s.apps[0].execution_time_s, prev_time - 1e-9);
    prev_time = s.apps[0].execution_time_s;
  }
}

// Table VI physics on the noise-free solver: on both Table IV presets and
// at every P-state, canneal runs strictly slower with each co-located cg
// added, and every solve of canneal + k cg reaches its fixed point.
TEST(Contention, TableVICannealSlowsWithEveryCg) {
  AppMrcLibrary library;
  const ApplicationSpec canneal = find_application("canneal");
  const ApplicationSpec cg = find_application("cg");
  const ScheduledApp canneal_app{&canneal, &library.curve(canneal)};
  const ScheduledApp cg_app{&cg, &library.curve(cg)};
  for (const MachineConfig& machine : {xeon_e5649(), xeon_e5_2697v2()}) {
    for (std::size_t p = 0; p < machine.pstates.size(); ++p) {
      double prev_time = 0.0;
      for (std::size_t k = 0; k < machine.cores; ++k) {
        std::vector<ScheduledApp> apps(k + 1, cg_app);
        apps[0] = canneal_app;
        const ContentionSolution s = solve_contention(
            machine, machine.pstates[p].frequency_ghz, apps);
        EXPECT_TRUE(s.converged)
            << machine.name << " P" << p << " with " << k << " cg";
        EXPECT_GT(s.apps[0].execution_time_s, prev_time)
            << machine.name << " P" << p << " with " << k << " cg";
        prev_time = s.apps[0].execution_time_s;
      }
    }
  }
}

}  // namespace
}  // namespace coloc::sim
