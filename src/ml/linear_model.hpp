// Linear regression model (Section III-C, Eq. 1):
//   co-located execution time = sum_i coefficient_i * feature_i + constant
//
// Coefficients are fitted by ordinary least squares (Householder QR on
// standardized features), the numerical equivalent of the SciPy routine
// the paper used. A system that QR reports singular — exactly collinear
// co-runner columns — is refitted with a tiny ridge penalty.
#pragma once

#include <span>

#include "ml/model.hpp"

namespace coloc::ml {

class LinearModel final : public Regressor {
 public:
  /// Fits on a design matrix of raw features (no intercept column; the
  /// model adds its own constant term, as in Eq. 1). Features are
  /// standardized for the solve; coefficients() and intercept() are in raw
  /// units.
  static LinearModel fit(const linalg::Matrix& x, std::span<const double> y);

  double predict(std::span<const double> features) const override;
  /// Row-wise dot products straight into the caller's buffer — the linear
  /// family's predictions never needed heap space, so the batched serving
  /// path gets the allocation-free guarantee here too.
  void predict_into(const linalg::Matrix& x,
                    std::span<double> out) const override;
  std::string describe() const override;

  /// Raw-unit coefficients (one per feature) and the constant term.
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

  /// Reconstructs a model from stored parameters (deserialization).
  static LinearModel from_params(std::vector<double> coefficients,
                                 double intercept);

 private:
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace coloc::ml
