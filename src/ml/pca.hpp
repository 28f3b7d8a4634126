// Principal component analysis for feature ranking (Section III-B).
//
// The paper selected its eight model features by running PCA over the
// collected data and ranking features "according to variance of their
// output". We provide both the decomposition and the per-feature importance
// score used for that ranking. The decomposition is correlation PCA: each
// column is standardized first, because the paper's features span orders
// of magnitude.
#pragma once

#include <string>
#include <vector>

#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"

namespace coloc::ml {

struct PcaResult {
  /// Eigenvalues of the correlation matrix, descending.
  std::vector<double> explained_variance;
  /// explained_variance normalized to sum to 1.
  std::vector<double> explained_variance_ratio;
  /// Column i is the i-th principal axis (loadings per feature).
  linalg::Matrix components;
  /// Feature means and stddevs used to standardize each column (a
  /// constant column keeps scale 1).
  std::vector<double> means;
  std::vector<double> scales;
};

PcaResult pca_fit(const linalg::Matrix& x);

/// Per-feature importance: sum over components of
/// |loading| * explained_variance_ratio. This is the ranking the paper uses
/// to decide which features enter Table I.
std::vector<double> pca_feature_importance(const PcaResult& pca);

/// Convenience: returns feature names sorted by descending importance.
std::vector<std::string> pca_rank_features(
    const PcaResult& pca, const std::vector<std::string>& names);

}  // namespace coloc::ml
