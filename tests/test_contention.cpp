#include "sim/contention.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace coloc::sim {
namespace {

// The per-instance fixed point: every iteration visits every app instance.
// solve_contention iterates runs of identical instances once each and must
// return exactly what this loop returns.
ContentionSolution solve_per_instance(const MachineConfig& machine,
                                      double frequency_ghz,
                                      const std::vector<ScheduledApp>& apps,
                                      const ContentionOptions& options) {
  const std::size_t n = apps.size();
  const double llc_lines = static_cast<double>(machine.llc_lines());
  const double private_lines = static_cast<double>(machine.private_lines());
  const double line_bytes = static_cast<double>(machine.line_bytes);
  const double hz = frequency_ghz * 1e9;

  std::vector<double> llc_apis(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = apps[i];
    llc_apis[i] = a.spec->refs_per_instruction *
                      a.mrc->miss_ratio(private_lines) +
                  a.spec->compulsory_misses_per_instruction;
  }

  std::vector<double> share(n, llc_lines / static_cast<double>(n));
  std::vector<double> mpi(n, 0.0);
  std::vector<double> cpi(n, 1.0);
  double latency_ns = machine.memory_latency_ns;

  ContentionSolution solution;
  bool converged = false;
  std::size_t iter = 0;

  for (; iter < kContentionMaxIterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = apps[i];
      const double eff_share = std::max(share[i], private_lines);
      const double warm_mpi =
          a.spec->refs_per_instruction * a.mrc->miss_ratio(eff_share);
      mpi[i] = std::min(warm_mpi + a.spec->compulsory_misses_per_instruction,
                        llc_apis[i]);
    }

    double max_rel_change = 0.0;
    std::vector<double> ips(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = apps[i];
      const double stall_cycles_per_miss =
          latency_ns * frequency_ghz / a.spec->mlp;
      const double new_cpi = a.spec->cpi_base + mpi[i] * stall_cycles_per_miss;
      max_rel_change =
          std::max(max_rel_change, std::abs(new_cpi - cpi[i]) / new_cpi);
      cpi[i] = new_cpi;
      ips[i] = hz / new_cpi;
    }

    double bytes_per_second = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      bytes_per_second += mpi[i] * ips[i] * line_bytes;
    const double rho = std::min(
        bytes_per_second / (machine.memory_bandwidth_gbs * 1e9),
        kContentionMaxUtilization);
    double target_latency = machine.memory_latency_ns;
    if (!options.disable_queueing) {
      target_latency *= 1.0 + machine.memory_queue_sensitivity * rho /
                                  (1.0 - rho);
    }
    latency_ns += kContentionDamping * (target_latency - latency_ns);
    solution.memory_utilization = rho;

    if (!options.static_equal_partition && n > 1) {
      double total_miss_rate = 0.0;
      std::vector<double> miss_rate(n);
      for (std::size_t i = 0; i < n; ++i) {
        miss_rate[i] = mpi[i] * ips[i];
        total_miss_rate += miss_rate[i];
      }
      if (total_miss_rate > 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
          const double target =
              std::max(llc_lines * miss_rate[i] / total_miss_rate,
                       llc_lines / static_cast<double>(
                                       machine.llc_associativity));
          share[i] += kContentionDamping * (target - share[i]);
        }
        double sum = 0.0;
        for (double v : share) sum += v;
        for (double& v : share) v *= llc_lines / sum;
      }
    } else if (n == 1) {
      share[0] = llc_lines;
    }

    if (max_rel_change < kContentionTolerance && iter > 2) {
      converged = true;
      ++iter;
      break;
    }
  }

  solution.apps.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    AppSolution& out = solution.apps[i];
    out.llc_share_lines = share[i];
    out.misses_per_instruction = mpi[i];
    out.accesses_per_instruction = llc_apis[i];
    out.cpi = cpi[i];
    out.instructions_per_second = hz / cpi[i];
    out.execution_time_s = apps[i].spec->instructions /
                           out.instructions_per_second;
  }
  solution.memory_latency_ns = latency_ns;
  solution.iterations = iter;
  solution.converged = converged;
  return solution;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The first field where `got` and `want` differ in any bit, or "".
std::string first_difference(const ContentionSolution& got,
                             const ContentionSolution& want) {
  std::ostringstream os;
  os.precision(17);
  auto check = [&os](const char* field, double g, double w) {
    if (os.tellp() == 0 && !same_bits(g, w))
      os << field << ": " << g << " vs " << w;
  };
  if (got.apps.size() != want.apps.size()) return "app count";
  if (got.iterations != want.iterations) return "iterations";
  if (got.converged != want.converged) return "converged";
  check("memory_latency_ns", got.memory_latency_ns, want.memory_latency_ns);
  check("memory_utilization", got.memory_utilization,
        want.memory_utilization);
  for (std::size_t i = 0; i < got.apps.size(); ++i) {
    const AppSolution& g = got.apps[i];
    const AppSolution& w = want.apps[i];
    const std::size_t before = static_cast<std::size_t>(os.tellp());
    check("llc_share_lines", g.llc_share_lines, w.llc_share_lines);
    check("misses_per_instruction", g.misses_per_instruction,
          w.misses_per_instruction);
    check("accesses_per_instruction", g.accesses_per_instruction,
          w.accesses_per_instruction);
    check("cpi", g.cpi, w.cpi);
    check("instructions_per_second", g.instructions_per_second,
          w.instructions_per_second);
    check("execution_time_s", g.execution_time_s, w.execution_time_s);
    if (before == 0 && os.tellp() != 0) os << " (app " << i << ")";
  }
  return os.str();
}

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

// The grouped iteration against the per-instance loop above, every field
// bit for bit: every Table V cell on both Table IV presets (the co-runner
// copies are distinct specs sharing one curve, as in a campaign), each
// ablation, and orders where identical apps are not all adjacent.
TEST(Contention, GroupedIterationMatchesPerInstanceReference) {
  AppMrcLibrary library;
  const std::vector<ApplicationSpec> suite = benchmark_suite();
  std::vector<ApplicationSpec> coapps;
  for (const std::string& name : training_coapp_names())
    coapps.push_back(find_application(name));
  library.profile_all(suite);

  std::size_t solves = 0;
  auto expect_matches = [&](const MachineConfig& machine, double ghz,
                            const std::vector<ScheduledApp>& apps,
                            const ContentionOptions& options,
                            const std::string& what) {
    const std::string diff =
        first_difference(solve_contention(machine, ghz, apps, options),
                         solve_per_instance(machine, ghz, apps, options));
    EXPECT_EQ(diff, "") << machine.name << " " << ghz << " GHz: " << what;
    ++solves;
  };
  auto scheduled = [&](const ApplicationSpec& app) {
    return ScheduledApp{&app, &library.curve(app)};
  };

  ContentionOptions static_partition;
  static_partition.static_equal_partition = true;
  ContentionOptions no_queueing;
  no_queueing.disable_queueing = true;
  const std::vector<std::pair<std::string, ContentionOptions>> ablations = {
      {"static partition", static_partition}, {"no queueing", no_queueing}};

  for (const MachineConfig& machine : {xeon_e5649(), xeon_e5_2697v2()}) {
    for (const PState& pstate : machine.pstates.states()) {
      const double ghz = pstate.frequency_ghz;
      for (const ApplicationSpec& target : suite) {
        for (const ApplicationSpec& co : coapps) {
          for (std::size_t count = 1; count < machine.cores; ++count) {
            const std::vector<ApplicationSpec> copies(count, co);
            std::vector<ScheduledApp> apps = {scheduled(target)};
            for (const ApplicationSpec& copy : copies)
              apps.push_back(scheduled(copy));
            const std::string cell =
                target.name + " + " + std::to_string(count) + " " + co.name;
            expect_matches(machine, ghz, apps, {}, cell);
            if (machine.name == xeon_e5649().name) {
              for (const auto& [name, options] : ablations)
                expect_matches(machine, ghz, apps, options, cell + ", " + name);
            }
          }
        }
      }

      // Heterogeneous orders. Identical apps apart ([a, b, a]); one copy
      // that differs only in length (grouped, its own time); equal
      // parameters over a different curve object (not grouped).
      const ApplicationSpec& a = suite.front();
      const ApplicationSpec& b = suite.back();
      ApplicationSpec longer = a;
      longer.instructions *= 2.0;
      const MissRatioCurve a_curve_copy = library.curve(a);
      const std::vector<ScheduledApp> mixed = {
          scheduled(a), scheduled(b), scheduled(a), scheduled(longer),
          ScheduledApp{&a, &a_curve_copy}};
      expect_matches(machine, ghz, mixed, {}, "[a, b, a, a', a'']");
      expect_matches(machine, ghz, {scheduled(a), scheduled(b), scheduled(a)},
                     {}, "[a, b, a]");
      for (const ApplicationSpec& app : suite)
        expect_matches(machine, ghz, {scheduled(app)}, {}, app.name + " alone");
      for (const auto& [name, options] : ablations) {
        expect_matches(machine, ghz, mixed, options, "[a, b, a, a', a''], " + name);
        expect_matches(machine, ghz, {scheduled(a)}, options, "alone, " + name);
      }
    }
  }

  // The whole suite together on the 12-core preset, in suite order and
  // reversed, with and without each ablation.
  const MachineConfig big = xeon_e5_2697v2();
  std::vector<ScheduledApp> all;
  for (const ApplicationSpec& app : suite) all.push_back(scheduled(app));
  for (int pass = 0; pass < 2; ++pass) {
    for (const PState& pstate : big.pstates.states()) {
      expect_matches(big, pstate.frequency_ghz, all, {}, "11-app suite");
      for (const auto& [name, options] : ablations)
        expect_matches(big, pstate.frequency_ghz, all, options,
                       "11-app suite, " + name);
    }
    std::reverse(all.begin(), all.end());
  }
  EXPECT_GT(solves, 1320u + 2904u);
}

}  // namespace
}  // namespace coloc::sim
