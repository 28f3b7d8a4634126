#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace coloc::ml {

KnnRegressor KnnRegressor::fit(const linalg::Matrix& x,
                               std::span<const double> y,
                               const KnnOptions& options) {
  COLOC_CHECK_MSG(x.rows() == y.size(), "row/target count mismatch");
  COLOC_CHECK_MSG(x.rows() >= 1, "k-NN needs at least one observation");
  COLOC_CHECK_MSG(options.k >= 1, "k must be at least 1");

  linalg::Matrix design = x;
  Standardizer scaler = Standardizer::fit(design);
  scaler.transform(design);
  return KnnRegressor(std::move(design),
                      std::vector<double>(y.begin(), y.end()),
                      std::move(scaler), options);
}

double KnnRegressor::predict(std::span<const double> features) const {
  COLOC_CHECK_MSG(features.size() == points_.cols(),
                  "feature width mismatch in KnnRegressor::predict");
  std::vector<double> query(features.begin(), features.end());
  scaler_.transform_row(query);

  // Partial sort the k smallest squared distances.
  const std::size_t n = targets_.size();
  const std::size_t k = std::min(options_.k, n);
  std::vector<std::pair<double, std::size_t>> distances;
  distances.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = points_.row(i);
    double d2 = 0.0;
    for (std::size_t c = 0; c < query.size(); ++c) {
      const double d = row[c] - query[c];
      d2 += d * d;
    }
    distances.emplace_back(d2, i);
  }
  std::nth_element(distances.begin(), distances.begin() + (k - 1),
                   distances.end());

  double weight_sum = 0.0;
  double value_sum = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto [d2, idx] = distances[j];
    // Exact match dominates; otherwise inverse-distance weights.
    if (d2 < 1e-24) return targets_[idx];
    const double w = 1.0 / std::sqrt(d2);
    weight_sum += w;
    value_sum += w * targets_[idx];
  }
  return value_sum / weight_sum;
}

std::string KnnRegressor::describe() const {
  std::ostringstream os;
  os << "KnnRegressor(k=" << options_.k << ", points=" << targets_.size()
     << ")";
  return os.str();
}

}  // namespace coloc::ml
