#include "ml/linear_model.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ml/metrics.hpp"

namespace coloc::ml {
namespace {

TEST(LinearModelTest, RecoversExactLinearRelation) {
  coloc::Rng rng(1);
  linalg::Matrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    x(i, 1) = rng.uniform(-5, 5);
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + 7.0;
  }
  const LinearModel m = LinearModel::fit(x, y);
  EXPECT_NEAR(m.coefficients()[0], 3.0, 1e-9);
  EXPECT_NEAR(m.coefficients()[1], -2.0, 1e-9);
  EXPECT_NEAR(m.intercept(), 7.0, 1e-9);
  EXPECT_NEAR(m.predict(std::vector<double>{1.0, 1.0}), 8.0, 1e-9);
}

TEST(LinearModelTest, NoisyFitHasSmallError) {
  coloc::Rng rng(3);
  linalg::Matrix x(200, 3);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.normal();
    y[i] = 100.0 + 5.0 * x(i, 0) + rng.normal(0, 0.5);
  }
  const LinearModel m = LinearModel::fit(x, y);
  const auto pred = m.predict_all(x);
  EXPECT_LT(mean_percent_error(pred, y), 1.0);
}

TEST(LinearModelTest, CollinearColumnsFitThroughTheRidgeRetry) {
  // Two identical columns make the QR system singular; the fit retries
  // with a tiny ridge, which splits the slope evenly between them.
  coloc::Rng rng(4);
  linalg::Matrix x(40, 2);
  std::vector<double> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    x(i, 1) = x(i, 0);
    y[i] = 3.0 * x(i, 0) + 7.0;
  }
  const LinearModel m = LinearModel::fit(x, y);  // must not throw
  EXPECT_NEAR(m.coefficients()[0], 1.5, 1e-6);
  EXPECT_NEAR(m.coefficients()[1], 1.5, 1e-6);
  EXPECT_NEAR(m.intercept(), 7.0, 1e-6);
  EXPECT_NEAR(m.predict(std::vector<double>{2.0, 2.0}), 13.0, 1e-6);
}

TEST(LinearModelTest, PredictWidthMismatchThrows) {
  coloc::Rng rng(9);
  linalg::Matrix x(10, 2);
  std::vector<double> y(10, 1.0);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = rng.normal();
  }
  const LinearModel m = LinearModel::fit(x, y);
  EXPECT_THROW(m.predict(std::vector<double>{1.0}), coloc::runtime_error);
}

TEST(LinearModelTest, TooFewRowsThrows) {
  linalg::Matrix x(2, 2, 1.0);
  std::vector<double> y(2, 1.0);
  EXPECT_THROW(LinearModel::fit(x, y), coloc::runtime_error);
}

TEST(LinearModelTest, DescribeMentionsSize) {
  linalg::Matrix x(10, 2);
  std::vector<double> y(10);
  coloc::Rng rng(6);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = x(i, 0);
  }
  const LinearModel m = LinearModel::fit(x, y);
  EXPECT_NE(m.describe().find("n=2"), std::string::npos);
}

}  // namespace
}  // namespace coloc::ml
