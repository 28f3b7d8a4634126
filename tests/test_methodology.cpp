#include "core/methodology.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "store/zoo_store.hpp"
#include "test_helpers.hpp"

namespace coloc::core {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

// Persists the predictor's model as a one-entry zoo bundle, loads the
// bundle back through the verifying loader and wraps the loaded model.
ColocationPredictor round_trip_through_zoo(const ColocationPredictor& original,
                                           const std::string& dir_name) {
  const std::string dir = ::testing::TempDir() + "/" + dir_name;
  std::filesystem::remove_all(dir);
  const std::string name = original.id().name();
  store::save_zoo(dir, {{name, &original.model()}});
  store::LoadReport report = store::load_zoo(dir);
  EXPECT_TRUE(report.complete()) << report.summary();
  ColocationPredictor loaded = ColocationPredictor::from_model(
      original.id(), std::move(report.models.at(name)));
  std::filesystem::remove_all(dir);
  return loaded;
}

class MethodologyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new sim::AppMrcLibrary();
    simulator_ = new sim::Simulator(tiny_machine(), library_);
    CampaignConfig config;
    config.targets = tiny_suite();
    config.coapps = {config.targets[0], config.targets[3]};
    campaign_ = new CampaignResult(run_campaign(*simulator_, config));
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete simulator_;
    delete library_;
    campaign_ = nullptr;
    simulator_ = nullptr;
    library_ = nullptr;
  }

  static EvaluationConfig quick_config() {
    EvaluationConfig config;
    config.validation.partitions = 4;
    config.zoo.mlp.max_iterations = 120;
    return config;
  }

  static sim::AppMrcLibrary* library_;
  static sim::Simulator* simulator_;
  static CampaignResult* campaign_;
};

sim::AppMrcLibrary* MethodologyTest::library_ = nullptr;
sim::Simulator* MethodologyTest::simulator_ = nullptr;
CampaignResult* MethodologyTest::campaign_ = nullptr;

TEST_F(MethodologyTest, EvaluatesAllTwelveModels) {
  const EvaluationSuite suite =
      evaluate_model_zoo(campaign_->dataset, quick_config());
  EXPECT_EQ(suite.evaluations.size(), 12u);
  for (const auto& e : suite.evaluations) {
    EXPECT_GT(e.result.test_mpe, 0.0) << e.id.name();
    EXPECT_GT(e.result.test_nrmse, 0.0) << e.id.name();
    EXPECT_EQ(e.result.partitions, 4u);
  }
}

TEST_F(MethodologyTest, FindLocatesEachModel) {
  const EvaluationSuite suite =
      evaluate_model_zoo(campaign_->dataset, quick_config());
  for (ModelTechnique t : kAllTechniques) {
    for (FeatureSet s : kAllFeatureSets) {
      const ModelId id{t, s};
      EXPECT_EQ(suite.find(t, s).id.name(), id.name());
    }
  }
}

TEST_F(MethodologyTest, FindThrowsOnMissing) {
  EvaluationSuite empty;
  EXPECT_THROW(empty.find(ModelTechnique::kLinear, FeatureSet::kA),
               invalid_argument_error);
}

TEST_F(MethodologyTest, CollectsPredictionsOnlyForRequestedModel) {
  const ModelId want{ModelTechnique::kLinear, FeatureSet::kC};
  const EvaluationSuite suite =
      evaluate_model_zoo(campaign_->dataset, quick_config(), want);
  for (const auto& e : suite.evaluations) {
    if (e.id.technique == want.technique &&
        e.id.feature_set == want.feature_set) {
      EXPECT_FALSE(e.result.test_predictions.empty());
    } else {
      EXPECT_TRUE(e.result.test_predictions.empty());
    }
  }
}

TEST_F(MethodologyTest, RicherFeaturesHelpTheNeuralNetwork) {
  EvaluationConfig config = quick_config();
  config.validation.partitions = 6;
  config.zoo.mlp.max_iterations = 400;
  const EvaluationSuite suite =
      evaluate_model_zoo(campaign_->dataset, config);
  const double mpe_a =
      suite.find(ModelTechnique::kNeuralNetwork, FeatureSet::kA)
          .result.test_mpe;
  const double mpe_f =
      suite.find(ModelTechnique::kNeuralNetwork, FeatureSet::kF)
          .result.test_mpe;
  EXPECT_LT(mpe_f, mpe_a);
}

TEST_F(MethodologyTest, PredictorTrainsAndPredictsPositiveTimes) {
  const ColocationPredictor predictor = ColocationPredictor::train(
      campaign_->dataset, {ModelTechnique::kLinear, FeatureSet::kF});
  const BaselineProfile& target = campaign_->baselines.at("medium");
  const BaselineProfile& co = campaign_->baselines.at("hog");
  const double t =
      predictor.predict_time(target, {&co, &co}, /*pstate=*/0);
  EXPECT_GT(t, 0.0);
}

TEST_F(MethodologyTest, PredictorSlowdownAboveOneForHungryCoRunners) {
  EvaluationConfig config = quick_config();
  const ColocationPredictor predictor = ColocationPredictor::train(
      campaign_->dataset, {ModelTechnique::kNeuralNetwork, FeatureSet::kF},
      config.zoo);
  const BaselineProfile& target = campaign_->baselines.at("hog");
  const BaselineProfile& co = campaign_->baselines.at("hog");
  const double slowdown =
      predictor.predict_slowdown(target, {&co, &co, &co}, 0);
  EXPECT_GT(slowdown, 1.0);
  EXPECT_LT(slowdown, 5.0);
}

TEST_F(MethodologyTest, PredictorTracksSimulatedTruth) {
  const ColocationPredictor predictor = ColocationPredictor::train(
      campaign_->dataset, {ModelTechnique::kLinear, FeatureSet::kF});
  // Predict a scenario that exists in the training sweep and compare with
  // a fresh measurement.
  const BaselineProfile& target = campaign_->baselines.at("medium");
  const BaselineProfile& co = campaign_->baselines.at("hog");
  const double predicted = predictor.predict_time(target, {&co, &co}, 0);
  const sim::RunMeasurement actual = simulator_->run_colocated(
      tiny_suite()[1], {tiny_suite()[0], tiny_suite()[0]}, 0, /*rep=*/5);
  EXPECT_NEAR(predicted, actual.execution_time_s,
              0.35 * actual.execution_time_s);
}

TEST_F(MethodologyTest, PcaRanksAllEightFeatures) {
  const ml::PcaResult pca = analyze_features(campaign_->dataset);
  EXPECT_EQ(pca.explained_variance.size(), kNumFeatures);
  const auto importance = ml::pca_feature_importance(pca);
  EXPECT_EQ(importance.size(), kNumFeatures);
  for (double v : importance) EXPECT_GE(v, 0.0);
}

TEST_F(MethodologyTest, ModelIdDefaultsAreSane) {
  const ModelId id;
  EXPECT_EQ(id.name(), "linear-A");
}

TEST_F(MethodologyTest, PredictorRoundTripsThroughStream) {
  EvaluationConfig config = quick_config();
  const ColocationPredictor original = ColocationPredictor::train(
      campaign_->dataset,
      {ModelTechnique::kNeuralNetwork, FeatureSet::kF}, config.zoo);
  const ColocationPredictor loaded =
      round_trip_through_zoo(original, "coloc_predictor_nn");

  EXPECT_EQ(loaded.id().name(), original.id().name());
  const BaselineProfile& target = campaign_->baselines.at("medium");
  const BaselineProfile& co = campaign_->baselines.at("hog");
  const std::vector<const BaselineProfile*> coapps = {&co, &co};
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(loaded.predict_time(target, coapps, p),
              original.predict_time(target, coapps, p));
  }
}

TEST_F(MethodologyTest, LinearPredictorRoundTripsThroughFile) {
  const ColocationPredictor original = ColocationPredictor::train(
      campaign_->dataset, {ModelTechnique::kLinear, FeatureSet::kC});
  const ColocationPredictor loaded =
      round_trip_through_zoo(original, "coloc_predictor_linear");
  const BaselineProfile& target = campaign_->baselines.at("light");
  const BaselineProfile& co = campaign_->baselines.at("quiet");
  EXPECT_EQ(loaded.predict_time(target, {&co}, 0),
            original.predict_time(target, {&co}, 0));
}

}  // namespace
}  // namespace coloc::core
