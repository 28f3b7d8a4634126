// Regenerates Table V: the training-data collection parameters, and
// reports the resulting campaign sizes (number of measured co-location
// cells per machine) exactly as the nested loops of Section IV-B3 imply.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());

  const std::vector<sim::MachineConfig> machines = {sim::xeon_e5649(),
                                                    sim::xeon_e5_2697v2()};
  const core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  core::render_table5(machines, campaign_config).print(std::cout);

  TextTable sizes("Campaign sizes implied by the Table V sweep");
  sizes.set_columns({"processor", "P-states", "targets", "co-apps",
                     "co-location counts", "total measurements"});
  sim::AppMrcLibrary library;
  library.profile_all(campaign_config.targets);
  for (const auto& machine : machines) {
    sim::Simulator simulator(machine, &library,
                             sim::MeasurementOptions{.seed = config.seed});
    const core::CampaignResult result =
        core::run_campaign(simulator, campaign_config);
    sizes.add_row({machine.name, TextTable::num(machine.pstates.size()),
                   TextTable::num(campaign_config.targets.size()),
                   TextTable::num(campaign_config.coapps.size()),
                   "1-" + std::to_string(machine.cores - 1),
                   TextTable::num(result.total_runs)});
  }
  sizes.print(std::cout);
  std::printf(
      "Each measurement profiles only the single target application —\n"
      "counters are read once per app per machine (Section IV-B3).\n");
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
