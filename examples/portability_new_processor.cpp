// Portability demonstration (the paper's stated design goal): apply the
// identical methodology to a processor that is NOT one of the two
// validation Xeons — a hypothetical 8-core part — and show the model
// quality carries over. Nothing about the pipeline changes except the
// MachineConfig.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/methodology.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  std::size_t partitions = 8;
  try {
    partitions = args.get_int("partitions", partitions);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "portability_new_processor: %s\n", e.what());
    return 2;
  }

  const sim::MachineConfig machine = sim::generic_8core();
  std::printf("porting the methodology to: %s (%zu cores, %zu MB LLC)\n",
              machine.name.c_str(), machine.cores,
              machine.llc_bytes >> 20);

  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);
  const core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  library.profile_all(campaign_config.targets);
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  std::printf("campaign: %zu measurements\n", campaign.total_runs);

  core::EvaluationConfig eval;
  eval.validation.partitions = partitions;
  eval.zoo.mlp.max_iterations = 1200;
  const core::EvaluationSuite suite =
      core::evaluate_model_zoo(campaign.dataset, eval);

  TextTable table("Model accuracy on the ported processor (test data)");
  table.set_columns({"feature set", "linear MPE (%)", "nn MPE (%)",
                     "linear NRMSE (%)", "nn NRMSE (%)"});
  for (core::FeatureSet set : core::kAllFeatureSets) {
    const auto& lin =
        suite.find(core::ModelTechnique::kLinear, set).result;
    const auto& nn =
        suite.find(core::ModelTechnique::kNeuralNetwork, set).result;
    table.add_row({to_string(set), TextTable::num(lin.test_mpe, 2),
                   TextTable::num(nn.test_mpe, 2),
                   TextTable::num(lin.test_nrmse, 2),
                   TextTable::num(nn.test_nrmse, 2)});
  }
  table.print(std::cout);

  // PCA feature ranking on the new machine's data (Section III-B).
  const ml::PcaResult pca = core::analyze_features(campaign.dataset);
  const auto ranked =
      ml::pca_rank_features(pca, campaign.dataset.feature_names());
  std::printf("PCA feature ranking on this machine:");
  for (const auto& name : ranked) std::printf(" %s", name.c_str());
  std::printf("\n");
  return 0;
}
