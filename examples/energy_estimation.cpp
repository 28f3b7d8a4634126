// Energy-estimation extension (Section VI): combine the execution-time
// predictor with the DVFS power model to estimate the energy cost of a
// co-location decision at each P-state — including the energy *increase*
// caused by memory interference, which pure time-free power models miss.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/methodology.hpp"
#include "sched/energy.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  const std::string target_name = args.get("target", "canneal");
  const std::string coapp_name = args.get("coapp", "cg");
  std::size_t copies = 5;
  try {
    copies = args.get_int("copies", copies);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "energy_estimation: %s\n", e.what());
    return 2;
  }

  const sim::MachineConfig machine = sim::xeon_e5_2697v2();
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);

  const core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  library.profile_all(campaign_config.targets);
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 1200;
  const core::ColocationPredictor predictor =
      core::ColocationPredictor::train(
          campaign.dataset,
          {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
          zoo);

  const core::BaselineProfile& target = campaign.baselines.at(target_name);
  const core::BaselineProfile& co = campaign.baselines.at(coapp_name);
  const std::vector<const core::BaselineProfile*> coapps(copies, &co);
  const std::size_t active_cores = copies + 1;

  std::printf("energy picture for %s co-located with %zux %s on %s\n\n",
              target_name.c_str(), copies, coapp_name.c_str(),
              machine.name.c_str());

  TextTable table("Per-P-state predicted time & energy for the target");
  table.set_columns({"P-state", "freq (GHz)", "alone time (s)",
                     "pred. co-located time (s)", "alone energy (kJ)",
                     "pred. co-located energy (kJ)",
                     "interference energy cost"});
  for (std::size_t p = 0; p < machine.pstates.size(); ++p) {
    const double alone_s = target.time_at(p);
    const double coloc_s = predictor.predict_time(target, coapps, p);
    // Energy attributed to the target's completion window. Alone: one busy
    // core. Co-located: the target's share of a fully-busy package.
    const double alone_j = sched::energy_j(machine, p, 1, alone_s);
    const double coloc_j =
        sched::energy_j(machine, p, active_cores, coloc_s) /
        static_cast<double>(active_cores);
    table.add_row({std::string("P").append(std::to_string(p)),
                   TextTable::num(machine.pstates[p].frequency_ghz, 2),
                   TextTable::num(alone_s, 0), TextTable::num(coloc_s, 0),
                   TextTable::num(alone_j / 1000.0, 1),
                   TextTable::num(coloc_j / 1000.0, 1),
                   TextTable::num(100.0 * (coloc_s / alone_s - 1.0), 1) +
                       "% time"});
  }
  table.print(std::cout);
  std::printf(
      "The predictor supplies the T in E = P x T under interference —\n"
      "exactly the energy-modeling extension the paper's conclusions\n"
      "propose.\n");
  return 0;
}
