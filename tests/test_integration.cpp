// End-to-end integration: the full paper pipeline on a scaled-down
// configuration — profile traces, run the Table V campaign, train the
// twelve models, validate, and use the best model for scheduling.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/methodology.hpp"
#include "core/report.hpp"
#include "serve/event_sim.hpp"
#include "test_helpers.hpp"

namespace coloc {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new sim::AppMrcLibrary();
    simulator_ = new sim::Simulator(tiny_machine(), library_);
    core::CampaignConfig config;
    config.targets = tiny_suite();
    config.coapps = {config.targets[0], config.targets[1],
                     config.targets[2], config.targets[3]};
    campaign_ =
        new core::CampaignResult(core::run_campaign(*simulator_, config));

    core::EvaluationConfig eval;
    eval.validation.partitions = 8;
    eval.zoo.mlp.max_iterations = 500;
    suite_ = new core::EvaluationSuite(core::evaluate_model_zoo(
        campaign_->dataset, eval,
        core::ModelId{core::ModelTechnique::kNeuralNetwork,
                      core::FeatureSet::kF}));
  }
  static void TearDownTestSuite() {
    delete suite_;
    delete campaign_;
    delete simulator_;
    delete library_;
  }

  static sim::AppMrcLibrary* library_;
  static sim::Simulator* simulator_;
  static core::CampaignResult* campaign_;
  static core::EvaluationSuite* suite_;
};

sim::AppMrcLibrary* IntegrationTest::library_ = nullptr;
sim::Simulator* IntegrationTest::simulator_ = nullptr;
core::CampaignResult* IntegrationTest::campaign_ = nullptr;
core::EvaluationSuite* IntegrationTest::suite_ = nullptr;

TEST_F(IntegrationTest, CampaignCoversFullSweep) {
  // 3 pstates x 4 targets x 4 coapps x 3 counts.
  EXPECT_EQ(campaign_->dataset.num_rows(), 144u);
}

TEST_F(IntegrationTest, AllModelsEvaluatedWithFiniteErrors) {
  for (const auto& e : suite_->evaluations) {
    EXPECT_TRUE(std::isfinite(e.result.test_mpe)) << e.id.name();
    EXPECT_GT(e.result.test_mpe, 0.0);
    EXPECT_LT(e.result.test_mpe, 60.0) << e.id.name();
  }
}

TEST_F(IntegrationTest, NnFBeatsLinearBaseline) {
  // The paper's headline result: the full-featured neural network clearly
  // outperforms the baseline linear model.
  const double nn_f = suite_
                          ->find(core::ModelTechnique::kNeuralNetwork,
                                 core::FeatureSet::kF)
                          .result.test_mpe;
  const double linear_a =
      suite_->find(core::ModelTechnique::kLinear, core::FeatureSet::kA)
          .result.test_mpe;
  EXPECT_LT(nn_f, linear_a);
}

TEST_F(IntegrationTest, NnImprovesWithMoreFeatures) {
  const double nn_a = suite_
                          ->find(core::ModelTechnique::kNeuralNetwork,
                                 core::FeatureSet::kA)
                          .result.test_mpe;
  const double nn_f = suite_
                          ->find(core::ModelTechnique::kNeuralNetwork,
                                 core::FeatureSet::kF)
                          .result.test_mpe;
  EXPECT_LT(nn_f, nn_a);
}

TEST_F(IntegrationTest, FigureSeriesBuildFromRealSuite) {
  for (core::Metric metric : {core::Metric::kMpe, core::Metric::kNrmse}) {
    const auto series = core::build_figure_series(*suite_, metric);
    EXPECT_EQ(series.size(), 4u);
    const std::string rendered = core::render_figure("fig", series);
    EXPECT_NE(rendered.find("csv,"), std::string::npos);
  }
}

TEST_F(IntegrationTest, Figure5PipelineProducesPerAppSummaries) {
  const auto& nn_f = suite_->find(core::ModelTechnique::kNeuralNetwork,
                                  core::FeatureSet::kF);
  ASSERT_FALSE(nn_f.result.test_predictions.empty());
  const auto summaries =
      core::per_app_error_summaries(nn_f.result.test_predictions);
  EXPECT_EQ(summaries.size(), 4u);  // one per target app
  for (const auto& [app, summary] : summaries) {
    // NN-F errors should be centred near zero (paper Figure 5b).
    EXPECT_LT(std::abs(summary.median), 6.0) << app;
  }
}

TEST_F(IntegrationTest, SchedulerUsesTrainedPredictorEndToEnd) {
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 400;
  const core::ColocationPredictor predictor =
      core::ColocationPredictor::train(
          campaign_->dataset,
          {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
          zoo);
  // AppId i is catalog[i], as the simulator requires.
  const std::vector<sim::ApplicationSpec> catalog = tiny_suite();
  serve::PlacementService service(&predictor);
  for (const auto& app : catalog) {
    service.register_app(campaign_->baselines.at(app.name));
  }
  // Two copies of every app at t = 0, and one node per job so the QoS
  // bound never has to give.
  std::vector<serve::Job> jobs;
  for (serve::AppId app = 0; app < catalog.size(); ++app) {
    jobs.push_back({app, 0.0});
    jobs.push_back({app, 0.0});
  }
  serve::EventSimConfig config;
  config.node = tiny_machine();
  config.nodes = jobs.size();
  config.max_slowdown = 1.2;
  serve::EventSimulator fleet(config, library_, catalog, &service);
  const serve::ReplayOutcome aware =
      fleet.replay(jobs, sched::PlacementPolicy::kInterferenceAware);
  const serve::ReplayOutcome packed =
      fleet.replay(jobs, sched::PlacementPolicy::kFirstFit);
  const auto nodes_used = [](const serve::ReplayOutcome& out) {
    std::set<std::uint32_t> used;
    for (const serve::JobOutcome& job : out.jobs) used.insert(job.node);
    return used.size();
  };
  // The interference-aware policy should honour QoS much better than
  // blind packing (possibly at the cost of more nodes).
  EXPECT_LE(aware.mean_slowdown, packed.mean_slowdown + 0.02);
  EXPECT_GE(nodes_used(aware), nodes_used(packed));
}

TEST_F(IntegrationTest, DatasetRoundTripsThroughCsv) {
  const CsvTable csv = campaign_->dataset.to_csv();
  const ml::Dataset back = ml::Dataset::from_csv(csv, "colocExTime");
  EXPECT_EQ(back.num_rows(), campaign_->dataset.num_rows());
  EXPECT_EQ(back.num_features(), campaign_->dataset.num_features());
  EXPECT_NEAR(back.target(10), campaign_->dataset.target(10), 1e-6);
}

TEST_F(IntegrationTest, PcaIdentifiesInformativeFeatures) {
  const ml::PcaResult pca = core::analyze_features(campaign_->dataset);
  const auto ranked =
      ml::pca_rank_features(pca, campaign_->dataset.feature_names());
  EXPECT_EQ(ranked.size(), core::kNumFeatures);
}

}  // namespace
}  // namespace coloc
