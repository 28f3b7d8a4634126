#include "ml/linear_model.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "linalg/qr.hpp"
#include "ml/dataset.hpp"

namespace coloc::ml {

namespace {
// The ridge penalty of the retry on a singular system.
constexpr double kSingularRidge = 1e-8;
}  // namespace

LinearModel LinearModel::fit(const linalg::Matrix& x,
                             std::span<const double> y) {
  COLOC_CHECK_MSG(x.rows() == y.size(), "row/target count mismatch");
  COLOC_CHECK_MSG(x.rows() > x.cols(),
                  "need more observations than features");
  const std::size_t n = x.cols();

  linalg::Matrix design = x;
  const Standardizer scaler = Standardizer::fit(design);
  scaler.transform(design);

  // Augment with an intercept column of ones.
  linalg::Matrix aug(design.rows(), n + 1);
  for (std::size_t r = 0; r < design.rows(); ++r) {
    auto dst = aug.row(r);
    const auto src = design.row(r);
    for (std::size_t c = 0; c < n; ++c) dst[c] = src[c];
    dst[n] = 1.0;
  }

  // The paper uses SciPy's linear least squares, which resolves rank
  // deficiency via a minimum-norm (SVD) solution. We approximate that by
  // retrying with a tiny ridge when plain QR reports a singular system —
  // e.g. when co-runner feature columns are exactly collinear because a
  // sweep used few distinct co-runner applications.
  linalg::Vector beta;
  try {
    linalg::Matrix copy = aug;
    beta = linalg::QR(std::move(copy)).solve(y);
  } catch (const coloc::runtime_error&) {
    // Ridge on feature coefficients only: augment rows sqrt(lambda)*e_i
    // for i < n so the intercept stays unpenalized.
    const std::size_t m = aug.rows();
    linalg::Matrix raug(m + n, n + 1, 0.0);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c <= n; ++c) raug(r, c) = aug(r, c);
    const double s = std::sqrt(kSingularRidge);
    for (std::size_t i = 0; i < n; ++i) raug(m + i, i) = s;
    linalg::Vector rhs(m + n, 0.0);
    for (std::size_t r = 0; r < m; ++r) rhs[r] = y[r];
    beta = linalg::QR(std::move(raug)).solve(rhs);
  }

  // Map standardized-space coefficients back to raw feature units:
  //   y = sum b_i (x_i - mu_i)/sd_i + b0
  //     = sum (b_i/sd_i) x_i + (b0 - sum b_i mu_i / sd_i).
  LinearModel model;
  model.coef_.assign(n, 0.0);
  model.intercept_ = beta[n];
  for (std::size_t i = 0; i < n; ++i) {
    model.coef_[i] = beta[i] / scaler.stddevs()[i];
    model.intercept_ -= beta[i] * scaler.means()[i] / scaler.stddevs()[i];
  }
  return model;
}

LinearModel LinearModel::from_params(std::vector<double> coefficients,
                                     double intercept) {
  COLOC_CHECK_MSG(!coefficients.empty(), "model needs coefficients");
  LinearModel model;
  model.coef_ = std::move(coefficients);
  model.intercept_ = intercept;
  return model;
}

double LinearModel::predict(std::span<const double> features) const {
  COLOC_CHECK_MSG(features.size() == coef_.size(),
                  "feature width mismatch in LinearModel::predict");
  double y = intercept_;
  for (std::size_t i = 0; i < coef_.size(); ++i)
    y += coef_[i] * features[i];
  return y;
}

void LinearModel::predict_into(const linalg::Matrix& x,
                               std::span<double> out) const {
  COLOC_CHECK_MSG(x.cols() == coef_.size(),
                  "feature width mismatch in LinearModel::predict_into");
  COLOC_CHECK_MSG(out.size() == x.rows(),
                  "output span size mismatch in LinearModel::predict_into");
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict(x.row(r));
}

std::string LinearModel::describe() const {
  std::ostringstream os;
  os << "LinearModel(n=" << coef_.size() << ", intercept=" << intercept_
     << ")";
  return os.str();
}

}  // namespace coloc::ml
