#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "test_helpers.hpp"

namespace coloc::core {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : simulator_(tiny_machine(), &library_) {
    config_.targets = tiny_suite();
    config_.coapps = {config_.targets[0], config_.targets[3]};
  }

  sim::AppMrcLibrary library_;
  sim::Simulator simulator_;
  CampaignConfig config_;
};

TEST_F(CampaignTest, RowCountMatchesSweepDimensions) {
  const CampaignResult result = run_campaign(simulator_, config_);
  // pstates(3) x targets(4) x coapps(2) x counts(1..3).
  EXPECT_EQ(result.dataset.num_rows(), 3u * 4u * 2u * 3u);
  EXPECT_EQ(result.total_runs, result.dataset.num_rows());
}

TEST_F(CampaignTest, DatasetHasEightFeatures) {
  const CampaignResult result = run_campaign(simulator_, config_);
  EXPECT_EQ(result.dataset.num_features(), kNumFeatures);
  EXPECT_EQ(result.dataset.feature_names(), feature_names());
  EXPECT_EQ(result.dataset.target_name(), "colocExTime");
}

TEST_F(CampaignTest, BaselinesCoverTargetsAndCoApps) {
  const CampaignResult result = run_campaign(simulator_, config_);
  for (const auto& app : config_.targets)
    EXPECT_TRUE(result.baselines.count(app.name));
}

TEST_F(CampaignTest, TagsEncodeScenario) {
  const CampaignResult result = run_campaign(simulator_, config_);
  const std::string& tag = result.dataset.tag(0);
  EXPECT_EQ(CampaignResult::tag_target(tag), "hog");
  EXPECT_NE(tag.find("|x1|"), std::string::npos);
  EXPECT_NE(tag.find("|p0"), std::string::npos);
}

TEST_F(CampaignTest, TargetsAreColocatedTimes) {
  const CampaignResult result = run_campaign(simulator_, config_);
  for (std::size_t r = 0; r < result.dataset.num_rows(); ++r) {
    EXPECT_GT(result.dataset.target(r), 0.0);
  }
}

TEST_F(CampaignTest, CoLocatedTimeAtLeastBaseline) {
  const CampaignResult result = run_campaign(simulator_, config_);
  for (std::size_t r = 0; r < result.dataset.num_rows(); ++r) {
    const double base_time = result.dataset.features(r)[0];
    // Allow a small tolerance for measurement noise on both values.
    EXPECT_GT(result.dataset.target(r), 0.93 * base_time)
        << result.dataset.tag(r);
  }
}

TEST_F(CampaignTest, FeatureColumnsAreScenarioConsistent) {
  const CampaignResult result = run_campaign(simulator_, config_);
  for (std::size_t r = 0; r < result.dataset.num_rows(); ++r) {
    const auto f = result.dataset.features(r);
    const double n = f[1];
    EXPECT_GE(n, 1.0);
    EXPECT_LE(n, 3.0);
    // Homogeneous co-runners: sums are n x per-app values, so dividing by
    // n recovers a single co-app's intensity — must be positive.
    EXPECT_GT(f[2] / n, 0.0);
  }
}

TEST_F(CampaignTest, CustomCountsRespected) {
  config_.colocation_counts = {2};
  const CampaignResult result = run_campaign(simulator_, config_);
  EXPECT_EQ(result.dataset.num_rows(), 3u * 4u * 2u * 1u);
  for (std::size_t r = 0; r < result.dataset.num_rows(); ++r)
    EXPECT_DOUBLE_EQ(result.dataset.features(r)[1], 2.0);
}

TEST_F(CampaignTest, CustomPStatesRespected) {
  config_.pstate_indices = {0};
  const CampaignResult result = run_campaign(simulator_, config_);
  EXPECT_EQ(result.dataset.num_rows(), 1u * 4u * 2u * 3u);
}

TEST_F(CampaignTest, OverCountRejected) {
  config_.colocation_counts = {4};  // 4 co-apps + target > 4 cores
  EXPECT_THROW(run_campaign(simulator_, config_), coloc::runtime_error);
}

TEST_F(CampaignTest, EmptyTargetsRejected) {
  config_.targets.clear();
  EXPECT_THROW(run_campaign(simulator_, config_), coloc::runtime_error);
}

TEST(CampaignDefaults, PaperDefaultsMatchSectionIVB3) {
  const CampaignConfig config = CampaignConfig::paper_defaults();
  EXPECT_EQ(config.targets.size(), 11u);
  ASSERT_EQ(config.coapps.size(), 4u);
  EXPECT_EQ(config.coapps[0].name, "cg");
  EXPECT_EQ(config.coapps[1].name, "sp");
  EXPECT_EQ(config.coapps[2].name, "fluidanimate");
  EXPECT_EQ(config.coapps[3].name, "ep");
  EXPECT_TRUE(config.colocation_counts.empty());  // 1..cores-1 at runtime
}

TEST(CampaignTags, RoundTrip) {
  const std::string tag = CampaignResult::make_tag("canneal", "cg", 4, 2);
  EXPECT_EQ(tag, "canneal|cg|x4|p2");
  EXPECT_EQ(CampaignResult::tag_target(tag), "canneal");
  EXPECT_EQ(CampaignResult::tag_target("plain"), "plain");
}

}  // namespace
}  // namespace coloc::core
