#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace coloc::ml {

PcaResult pca_fit(const linalg::Matrix& x) {
  COLOC_CHECK_MSG(x.rows() >= 2, "PCA needs at least two observations");
  const std::size_t n = x.cols();
  COLOC_CHECK_MSG(n >= 1, "PCA needs at least one feature");

  PcaResult result;
  result.means.assign(n, 0.0);
  result.scales.assign(n, 1.0);
  for (std::size_t c = 0; c < n; ++c) {
    RunningStats rs;
    for (std::size_t r = 0; r < x.rows(); ++r) rs.add(x(r, c));
    result.means[c] = rs.mean();
    const double sd = rs.stddev();
    result.scales[c] = sd > 1e-12 ? sd : 1.0;
  }

  // Correlation matrix: the covariance of the standardized data.
  linalg::Matrix cov(n, n, 0.0);
  const double denom = static_cast<double>(x.rows() - 1);
  std::vector<double> row(n);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < n; ++c)
      row[c] = (x(r, c) - result.means[c]) / result.scales[c];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) cov(i, j) += row[i] * row[j];
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }

  linalg::EigenResult eig = eigen_symmetric(cov);
  // Numerical noise can push tiny eigenvalues slightly negative; clamp.
  for (auto& v : eig.values) v = std::max(v, 0.0);

  result.explained_variance = eig.values;
  const double total =
      std::accumulate(eig.values.begin(), eig.values.end(), 0.0);
  result.explained_variance_ratio.assign(n, 0.0);
  if (total > 0.0) {
    for (std::size_t i = 0; i < n; ++i)
      result.explained_variance_ratio[i] = eig.values[i] / total;
  }
  result.components = std::move(eig.vectors);
  return result;
}

std::vector<double> pca_feature_importance(const PcaResult& pca) {
  const std::size_t n = pca.means.size();
  std::vector<double> importance(n, 0.0);
  for (std::size_t f = 0; f < n; ++f) {
    for (std::size_t comp = 0; comp < n; ++comp) {
      importance[f] += std::abs(pca.components(f, comp)) *
                       pca.explained_variance_ratio[comp];
    }
  }
  return importance;
}

std::vector<std::string> pca_rank_features(
    const PcaResult& pca, const std::vector<std::string>& names) {
  COLOC_CHECK_MSG(names.size() == pca.means.size(),
                  "feature-name count mismatch");
  const std::vector<double> importance = pca_feature_importance(pca);
  std::vector<std::size_t> order(names.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&importance](auto a, auto b) {
    return importance[a] > importance[b];
  });
  std::vector<std::string> ranked;
  ranked.reserve(names.size());
  for (auto i : order) ranked.push_back(names[i]);
  return ranked;
}

}  // namespace coloc::ml
