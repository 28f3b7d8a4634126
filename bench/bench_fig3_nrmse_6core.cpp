// Regenerates Figure 3: NRMSE of all twelve models on the 6-core
// Xeon E5649.
#include "bench_common.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());
  bench::MachineExperiment experiment(sim::xeon_e5649(), config);
  experiment.print_figure(
      "Figure 3: NRMSE vs feature set, 6-core Xeon E5649",
      core::Metric::kNrmse);
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
