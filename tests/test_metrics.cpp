#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace coloc::ml {
namespace {

TEST(Mpe, PerfectPredictionIsZero) {
  const std::vector<double> p = {1, 2, 3};
  EXPECT_DOUBLE_EQ(mean_percent_error(p, p), 0.0);
}

TEST(Mpe, KnownValue) {
  const std::vector<double> actual = {100.0, 200.0};
  const std::vector<double> pred = {110.0, 180.0};
  // |10/100| + |20/200| = 0.1 + 0.1, mean 0.1 -> 10%.
  EXPECT_NEAR(mean_percent_error(pred, actual), 10.0, 1e-12);
}

TEST(Mpe, SymmetricInErrorSign) {
  const std::vector<double> actual = {100.0};
  EXPECT_DOUBLE_EQ(
      mean_percent_error(std::vector<double>{90.0}, actual),
      mean_percent_error(std::vector<double>{110.0}, actual));
}

TEST(Mpe, ZeroActualThrows) {
  const std::vector<double> actual = {0.0};
  const std::vector<double> pred = {1.0};
  EXPECT_THROW(mean_percent_error(pred, actual), coloc::runtime_error);
}

TEST(Mpe, LengthMismatchThrows) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> p = {1.0};
  EXPECT_THROW(mean_percent_error(p, a), coloc::runtime_error);
}

TEST(Nrmse, KnownValue) {
  const std::vector<double> actual = {0.0, 10.0};
  const std::vector<double> pred = {1.0, 10.0};
  // RMSE = sqrt(0.5), range = 10 -> 100*sqrt(0.5)/10.
  EXPECT_NEAR(normalized_rmse(pred, actual),
              100.0 * std::sqrt(0.5) / 10.0, 1e-12);
}

TEST(Nrmse, ZeroRangeThrows) {
  const std::vector<double> actual = {5.0, 5.0};
  const std::vector<double> pred = {5.0, 6.0};
  EXPECT_THROW(normalized_rmse(pred, actual), coloc::runtime_error);
}

TEST(Rmse, KnownValue) {
  const std::vector<double> actual = {0.0, 0.0};
  const std::vector<double> pred = {3.0, 4.0};
  EXPECT_NEAR(rmse(pred, actual), std::sqrt(12.5), 1e-12);
}

TEST(Metrics, EmptyInputThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean_percent_error(empty, empty), coloc::runtime_error);
  EXPECT_THROW(rmse(empty, empty), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::ml
