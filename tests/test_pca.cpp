#include "ml/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"

namespace coloc::ml {
namespace {

// Scores of every row of x on every principal axis: standardize with the
// fit's means and scales, then multiply by the loadings.
linalg::Matrix scores(const PcaResult& pca, const linalg::Matrix& x) {
  linalg::Matrix z = x;
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c)
      z(r, c) = (x(r, c) - pca.means[c]) / pca.scales[c];
  return linalg::matmul(z, pca.components);
}

TEST(Pca, ExplainedVarianceRatiosSumToOne) {
  coloc::Rng rng(1);
  linalg::Matrix x(100, 4);
  for (std::size_t r = 0; r < 100; ++r)
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.normal();
  const PcaResult pca = pca_fit(x);
  const double total = std::accumulate(
      pca.explained_variance_ratio.begin(),
      pca.explained_variance_ratio.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Pca, FindsDominantDirection) {
  // Data along the (1, 1) diagonal with tiny orthogonal noise.
  coloc::Rng rng(2);
  linalg::Matrix x(300, 2);
  for (std::size_t r = 0; r < 300; ++r) {
    const double t = rng.normal(0, 3.0);
    const double n = rng.normal(0, 0.01);
    x(r, 0) = t + n;
    x(r, 1) = t - n;
  }
  const PcaResult pca = pca_fit(x);
  EXPECT_GT(pca.explained_variance_ratio[0], 0.99);
  // First component is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(pca.components(0, 0)), 1.0 / std::sqrt(2.0), 1e-2);
  EXPECT_NEAR(std::abs(pca.components(1, 0)), 1.0 / std::sqrt(2.0), 1e-2);
}

TEST(Pca, StandardizedIgnoresScale) {
  coloc::Rng rng(3);
  linalg::Matrix x(200, 2);
  for (std::size_t r = 0; r < 200; ++r) {
    x(r, 0) = rng.normal(0, 1e6);  // huge scale, independent
    x(r, 1) = rng.normal(0, 1e-6);
  }
  const PcaResult pca = pca_fit(x);
  // With standardization, independent features share variance ~equally.
  EXPECT_LT(pca.explained_variance_ratio[0], 0.7);
}

TEST(Pca, TransformDecorrelatesComponents) {
  coloc::Rng rng(4);
  linalg::Matrix x(500, 3);
  for (std::size_t r = 0; r < 500; ++r) {
    const double a = rng.normal();
    const double b = rng.normal();
    x(r, 0) = a;
    x(r, 1) = a + 0.5 * b;
    x(r, 2) = b;
  }
  const PcaResult pca = pca_fit(x);
  const linalg::Matrix z = scores(pca, x);
  // Components should be uncorrelated.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < 500; ++r) s += z(r, i) * z(r, j);
      EXPECT_NEAR(s / 500.0, 0.0, 1e-6);
    }
  }
}

TEST(Pca, TransformedVarianceMatchesEigenvalues) {
  coloc::Rng rng(5);
  linalg::Matrix x(400, 2);
  for (std::size_t r = 0; r < 400; ++r) {
    x(r, 0) = rng.normal(0, 2.0);
    x(r, 1) = rng.normal(0, 1.0);
  }
  const PcaResult pca = pca_fit(x);
  const linalg::Matrix z = scores(pca, x);
  for (std::size_t c = 0; c < 2; ++c) {
    double var = 0.0;
    for (std::size_t r = 0; r < 400; ++r) var += z(r, c) * z(r, c);
    var /= 399.0;
    EXPECT_NEAR(var, pca.explained_variance[c],
                0.05 * pca.explained_variance[c] + 1e-9);
  }
}

TEST(Pca, ImportanceRanksInformativeFeatureFirst) {
  coloc::Rng rng(6);
  linalg::Matrix x(300, 3);
  for (std::size_t r = 0; r < 300; ++r) {
    const double shared = rng.normal();
    x(r, 0) = shared + rng.normal(0, 0.1);
    x(r, 1) = shared + rng.normal(0, 0.1);
    x(r, 2) = rng.normal(0, 0.1);  // independent noise feature
  }
  const PcaResult pca = pca_fit(x);
  const auto ranked =
      pca_rank_features(pca, {"shared_a", "shared_b", "noise"});
  EXPECT_NE(ranked[0], "noise");
}

TEST(Pca, RejectsTooFewRows) {
  linalg::Matrix x(1, 2, 1.0);
  EXPECT_THROW(pca_fit(x), coloc::runtime_error);
}

TEST(Pca, RankNamesCountMismatchThrows) {
  coloc::Rng rng(8);
  linalg::Matrix x(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    x(r, 0) = rng.normal();
    x(r, 1) = rng.normal();
  }
  const PcaResult pca = pca_fit(x);
  EXPECT_THROW(pca_rank_features(pca, {"only_one"}), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::ml
