// Regenerates Figure 4: NRMSE of all twelve models on the 12-core
// Xeon E5-2697 v2.
#include "bench_common.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());
  bench::MachineExperiment experiment(sim::xeon_e5_2697v2(), config);
  experiment.print_figure(
      "Figure 4: NRMSE vs feature set, 12-core Xeon E5-2697 v2",
      core::Metric::kNrmse);
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
