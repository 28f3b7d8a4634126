#include "ml/feature_selection.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/linear_model.hpp"

namespace coloc::ml {
namespace {

// Three features: x0 strongly predictive, x1 weakly, x2 pure noise.
Dataset tiered_dataset(std::size_t n, std::uint64_t seed) {
  coloc::Rng rng(seed);
  Dataset ds({"strong", "weak", "noise"}, "y");
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(1, 5);
    const double x1 = rng.uniform(0, 2);
    const double x2 = rng.normal();
    ds.add_row(std::vector<double>{x0, x1, x2},
               50.0 + 10.0 * x0 + 0.5 * x1 + rng.normal(0, 0.05));
  }
  return ds;
}

ModelFactory linear_factory() {
  return [](const linalg::Matrix& x,
            std::span<const double> y) -> RegressorPtr {
    return std::make_unique<LinearModel>(LinearModel::fit(x, y));
  };
}

ValidationOptions quick_options() { return {.partitions = 8}; }

TEST(ForwardSelection, PicksStrongFeatureFirst) {
  const Dataset ds = tiered_dataset(200, 1);
  const auto result =
      forward_select_features(ds, linear_factory(), quick_options());
  ASSERT_FALSE(result.steps.empty());
  EXPECT_EQ(result.steps[0].feature_name, "strong");
}

TEST(ForwardSelection, ErrorsAreNonincreasingIsh) {
  // Each accepted step is the best available; errors should not blow up.
  const Dataset ds = tiered_dataset(200, 2);
  const auto result =
      forward_select_features(ds, linear_factory(), quick_options());
  ASSERT_GE(result.steps.size(), 2u);
  EXPECT_LE(result.steps[1].test_mpe, result.steps[0].test_mpe * 1.05);
}

TEST(ForwardSelection, SelectsAllWhenUnconstrained) {
  const Dataset ds = tiered_dataset(150, 5);
  const auto result =
      forward_select_features(ds, linear_factory(), quick_options());
  EXPECT_EQ(result.selected.size(), 3u);
  // selected columns are distinct
  EXPECT_NE(result.selected[0], result.selected[1]);
  EXPECT_NE(result.selected[1], result.selected[2]);
  EXPECT_NE(result.selected[0], result.selected[2]);
}

TEST(ForwardSelection, StepsRecordNames) {
  const Dataset ds = tiered_dataset(120, 6);
  const auto result =
      forward_select_features(ds, linear_factory(), quick_options());
  for (const auto& step : result.steps) {
    EXPECT_FALSE(step.feature_name.empty());
    EXPECT_GT(step.test_mpe, 0.0);
  }
}

}  // namespace
}  // namespace coloc::ml
