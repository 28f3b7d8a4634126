// Householder QR factorization and least-squares solves.
//
// This is the numerical engine behind the paper's linear models (Section
// III-C): the paper used SciPy's linear least squares; we provide the
// numerically equivalent QR-based solver.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace coloc::linalg {

/// Compact Householder QR of an m x n matrix with m >= n.
/// R is stored in the upper triangle; the Householder vectors in the lower
/// trapezoid plus `tau`. Provides Q^T*b application and R backsolve, which is
/// all least squares needs — Q is never formed explicitly.
class QR {
 public:
  /// Factorizes `a` (m >= n required).
  explicit QR(Matrix a);

  std::size_t rows() const { return qr_.rows(); }
  std::size_t cols() const { return qr_.cols(); }

  /// Numerical rank estimate: number of diagonal R entries above
  /// tol * max|R_ii|.
  std::size_t rank(double tol = 1e-12) const;

  /// Minimum-norm-in-the-residual least squares solution of A x ≈ b.
  /// Throws coloc::runtime_error if R is numerically singular.
  Vector solve(std::span<const double> b) const;

  /// Applies Q^T to b in place (b must have m entries).
  void apply_qt(std::span<double> b) const;

  /// Solves R x = y for the leading n entries of y.
  Vector backsolve(std::span<const double> y) const;

  /// Extracts the explicit R factor (n x n upper triangular).
  Matrix r_factor() const;

  /// Reconstructs the thin Q (m x n) — used by tests to check Q^T Q = I.
  Matrix thin_q() const;

 private:
  Matrix qr_;
  Vector tau_;
};

/// Convenience one-shot least squares: returns argmin_x ||A x - b||_2.
Vector least_squares(const Matrix& a, std::span<const double> b);

}  // namespace coloc::linalg
