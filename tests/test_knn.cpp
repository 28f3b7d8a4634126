#include "ml/knn.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/metrics.hpp"

namespace coloc::ml {
namespace {

TEST(Knn, ExactMatchReturnsStoredTarget) {
  linalg::Matrix x{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<double> y = {10.0, 20.0, 30.0};
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 2});
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{3.0, 4.0}), 20.0);
}

TEST(Knn, OneNeighborReturnsNearestTarget) {
  linalg::Matrix x{{0.0}, {10.0}};
  const std::vector<double> y = {1.0, 2.0};
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 1});
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{2.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{8.0}), 2.0);
}

TEST(Knn, DistanceWeightingFavorsCloserPoint) {
  linalg::Matrix x{{0.0}, {10.0}};
  const std::vector<double> y = {0.0, 10.0};
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 2});
  // Query at 2: distance 2 vs 8 -> prediction below the midpoint 5.
  EXPECT_LT(m.predict(std::vector<double>{2.0}), 5.0);
  EXPECT_GT(m.predict(std::vector<double>{2.0}), 0.0);
}

TEST(Knn, InterpolatesSmoothFunctionWell) {
  coloc::Rng rng(1);
  linalg::Matrix x(400, 2);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    x(i, 1) = rng.uniform(0, 1);
    y[i] = 5.0 + 2.0 * x(i, 0) + x(i, 1) * x(i, 1);
  }
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 5});
  // Evaluate away from training points.
  coloc::Rng probe_rng(2);
  std::vector<double> pred, actual;
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> q = {probe_rng.uniform(0.1, 0.9),
                                   probe_rng.uniform(0.1, 0.9)};
    pred.push_back(m.predict(q));
    actual.push_back(5.0 + 2.0 * q[0] + q[1] * q[1]);
  }
  EXPECT_LT(mean_percent_error(pred, actual), 2.0);
}

TEST(Knn, StandardizationMakesScalesComparable) {
  // Feature 0 spans 1e6, feature 1 spans 1; without standardization the
  // second feature would be invisible to the distance metric.
  linalg::Matrix x{{0.0, 0.0}, {1e6, 0.0}, {0.0, 1.0}, {1e6, 1.0}};
  const std::vector<double> y = {0.0, 0.0, 10.0, 10.0};  // driven by f1
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 1});
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{5e5, 0.95}), 10.0);
}

TEST(Knn, KLargerThanDatasetClamps) {
  linalg::Matrix x{{0.0}, {1.0}};
  const std::vector<double> y = {2.0, 4.0};
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 50});
  // Both points are equidistant, so their inverse-distance weights match.
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{0.5}), 3.0);
}

TEST(Knn, PredictWidthMismatchThrows) {
  linalg::Matrix x{{0.0, 1.0}};
  const std::vector<double> y = {1.0};
  const KnnRegressor m = KnnRegressor::fit(x, y);
  EXPECT_THROW(m.predict(std::vector<double>{1.0}), coloc::runtime_error);
}

TEST(Knn, InvalidConfigRejected) {
  linalg::Matrix x{{0.0}};
  const std::vector<double> y = {1.0};
  EXPECT_THROW(KnnRegressor::fit(x, y, {.k = 0}), coloc::runtime_error);
}

TEST(Knn, DescribeMentionsK) {
  linalg::Matrix x{{0.0}, {1.0}};
  const std::vector<double> y = {1.0, 2.0};
  const KnnRegressor m = KnnRegressor::fit(x, y, {.k = 2});
  EXPECT_NE(m.describe().find("k=2"), std::string::npos);
}

}  // namespace
}  // namespace coloc::ml
