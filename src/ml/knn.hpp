// k-nearest-neighbour regression baseline.
//
// A third comparator alongside the paper's linear and neural-network
// models: non-parametric, zero training cost, and a useful sanity check —
// if k-NN matched the NN's accuracy, the sweep would simply be dense
// enough to interpolate and the NN would add nothing. (It doesn't: k-NN
// falls between linear and NN on campaign data, and cannot extrapolate to
// unseen co-runners at all.)
#pragma once

#include <cstddef>

#include "ml/dataset.hpp"
#include "ml/model.hpp"

namespace coloc::ml {

struct KnnOptions {
  std::size_t k = 5;
};

class KnnRegressor final : public Regressor {
 public:
  /// Stores the (standardized) training set; prediction is the
  /// inverse-distance weighted average of the k nearest training targets
  /// (an exact match returns its stored target).
  static KnnRegressor fit(const linalg::Matrix& x, std::span<const double> y,
                          const KnnOptions& options = {});

  double predict(std::span<const double> features) const override;
  std::string describe() const override;

  std::size_t num_points() const { return targets_.size(); }

 private:
  KnnRegressor(linalg::Matrix x, std::vector<double> y,
               Standardizer scaler, KnnOptions options)
      : points_(std::move(x)), targets_(std::move(y)),
        scaler_(std::move(scaler)), options_(options) {}

  linalg::Matrix points_;  // standardized training features
  std::vector<double> targets_;
  Standardizer scaler_;
  KnnOptions options_;
};

}  // namespace coloc::ml
