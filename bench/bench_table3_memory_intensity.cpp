// Regenerates Table III: the eleven benchmark applications, their suites,
// memory-intensity classes, and measured baseline memory intensities.
// Also verifies the paper's observation that intensities "do not vary
// widely between the machines we tested" by printing both processors.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/features.hpp"
#include "core/report.hpp"
#include "sim/machine.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());

  const auto apps = sim::benchmark_suite();
  sim::AppMrcLibrary library;
  library.profile_all(apps);

  for (const auto& machine : {sim::xeon_e5649(), sim::xeon_e5_2697v2()}) {
    sim::Simulator simulator(machine, &library,
                             sim::MeasurementOptions{.seed = config.seed});
    const core::BaselineLibrary baselines =
        core::collect_baselines(simulator, apps);
    std::printf("Machine: %s\n", machine.name.c_str());
    core::render_table3(apps, baselines).print(std::cout);

    // Companion detail: baseline execution time window per Section IV
    // ("actual values could range from as little as 150 seconds to over
    // 1000 seconds").
    double min_t = 1e30, max_t = 0.0;
    for (const auto& [name, profile] : baselines) {
      for (double t : profile.execution_time_s) {
        min_t = std::min(min_t, t);
        max_t = std::max(max_t, t);
      }
    }
    std::printf("baseline execution times across P-states: %.0f-%.0f s\n\n",
                min_t, max_t);
  }
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
