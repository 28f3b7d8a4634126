#include "linalg/qr.hpp"

#include <cmath>

namespace coloc::linalg {

QR::QR(Matrix a) : qr_(std::move(a)) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  COLOC_CHECK_MSG(m >= n, "QR requires rows >= cols");
  tau_.assign(n, 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0 ? -norm : norm;
    const double vk = qr_(k, k) - alpha;
    // v = [1, qr(k+1..m-1, k)/vk]; beta = -vk / alpha.
    for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= vk;
    tau_[k] = -vk / alpha;
    qr_(k, k) = alpha;

    // Apply the reflector to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

std::size_t QR::rank(double tol) const {
  double max_diag = 0.0;
  for (std::size_t k = 0; k < cols(); ++k)
    max_diag = std::max(max_diag, std::abs(qr_(k, k)));
  if (max_diag == 0.0) return 0;
  std::size_t r = 0;
  for (std::size_t k = 0; k < cols(); ++k)
    if (std::abs(qr_(k, k)) > tol * max_diag) ++r;
  return r;
}

void QR::apply_qt(std::span<double> b) const {
  const std::size_t m = rows();
  const std::size_t n = cols();
  COLOC_CHECK_MSG(b.size() == m, "apply_qt length mismatch");
  for (std::size_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = b[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * b[i];
    s *= tau_[k];
    b[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * qr_(i, k);
  }
}

Vector QR::backsolve(std::span<const double> y) const {
  const std::size_t n = cols();
  COLOC_CHECK_MSG(y.size() >= n, "backsolve needs at least n entries");
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    max_diag = std::max(max_diag, std::abs(qr_(k, k)));
  const double tol = 1e-13 * max_diag;
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= qr_(ii, j) * x[j];
    const double d = qr_(ii, ii);
    if (std::abs(d) <= tol) {
      throw coloc::runtime_error("QR backsolve: numerically singular R");
    }
    x[ii] = s / d;
  }
  return x;
}

Vector QR::solve(std::span<const double> b) const {
  COLOC_CHECK_MSG(b.size() == rows(), "rhs length mismatch");
  Vector y(b.begin(), b.end());
  apply_qt(y);
  return backsolve(y);
}

Matrix QR::r_factor() const {
  const std::size_t n = cols();
  Matrix r(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) r(i, j) = qr_(i, j);
  return r;
}

Matrix QR::thin_q() const {
  const std::size_t m = rows();
  const std::size_t n = cols();
  Matrix q(m, n, 0.0);
  // Apply the reflectors in reverse to the first n columns of I.
  for (std::size_t c = 0; c < n; ++c) {
    Vector e(m, 0.0);
    e[c] = 1.0;
    for (std::size_t kk = n; kk-- > 0;) {
      if (tau_[kk] == 0.0) continue;
      double s = e[kk];
      for (std::size_t i = kk + 1; i < m; ++i) s += qr_(i, kk) * e[i];
      s *= tau_[kk];
      e[kk] -= s;
      for (std::size_t i = kk + 1; i < m; ++i) e[i] -= s * qr_(i, kk);
    }
    q.set_col(c, e);
  }
  return q;
}

Vector least_squares(const Matrix& a, std::span<const double> b) {
  return QR(a).solve(b);
}

}  // namespace coloc::linalg
