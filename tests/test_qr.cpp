#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace coloc::linalg {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix a(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
  return a;
}

TEST(QRTest, ReconstructsSquareSystem) {
  const Matrix a{{4, 1}, {2, 3}};
  const std::vector<double> b = {1.0, 2.0};
  const Vector x = QR(a).solve(b);
  // Check A x == b.
  EXPECT_NEAR(dot(a.row(0), x), b[0], 1e-12);
  EXPECT_NEAR(dot(a.row(1), x), b[1], 1e-12);
}

TEST(QRTest, ThinQIsOrthonormal) {
  coloc::Rng rng(3);
  const Matrix a = random_matrix(20, 5, rng);
  const QR qr(a);
  const Matrix q = qr.thin_q();
  const Matrix qtq = matmul(q.transposed(), q);
  EXPECT_NEAR(frobenius_distance(qtq, Matrix::identity(5)), 0.0, 1e-10);
}

TEST(QRTest, QRReconstructsA) {
  coloc::Rng rng(4);
  const Matrix a = random_matrix(12, 4, rng);
  const QR qr(a);
  const Matrix reconstructed = matmul(qr.thin_q(), qr.r_factor());
  EXPECT_NEAR(frobenius_distance(reconstructed, a), 0.0, 1e-10);
}

TEST(QRTest, RIsUpperTriangular) {
  coloc::Rng rng(5);
  const QR qr(random_matrix(8, 4, rng));
  const Matrix r = qr.r_factor();
  for (std::size_t i = 1; i < 4; ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

TEST(QRTest, LeastSquaresRecoversKnownCoefficients) {
  // y = 2*x0 - 3*x1 + 0.5 with exact data.
  coloc::Rng rng(6);
  Matrix a(50, 3);
  std::vector<double> b(50);
  for (std::size_t i = 0; i < 50; ++i) {
    const double x0 = rng.uniform(-2, 2);
    const double x1 = rng.uniform(-2, 2);
    a(i, 0) = x0;
    a(i, 1) = x1;
    a(i, 2) = 1.0;
    b[i] = 2.0 * x0 - 3.0 * x1 + 0.5;
  }
  const Vector x = least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], -3.0, 1e-10);
  EXPECT_NEAR(x[2], 0.5, 1e-10);
}

TEST(QRTest, ResidualIsOrthogonalToColumns) {
  coloc::Rng rng(7);
  const Matrix a = random_matrix(30, 4, rng);
  std::vector<double> b(30);
  for (auto& v : b) v = rng.normal();
  const Vector x = least_squares(a, b);
  Vector residual(b.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    residual[i] = dot(a.row(i), x) - b[i];
  for (std::size_t c = 0; c < a.cols(); ++c)
    EXPECT_NEAR(dot(a.col(c), residual), 0.0, 1e-9);
}

TEST(QRTest, RankDetectsDeficiency) {
  // Third column = first + second.
  Matrix a(6, 3);
  coloc::Rng rng(8);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = rng.normal();
    a(i, 2) = a(i, 0) + a(i, 1);
  }
  EXPECT_EQ(QR(a).rank(1e-10), 2u);
}

TEST(QRTest, FullRankDetected) {
  coloc::Rng rng(9);
  EXPECT_EQ(QR(random_matrix(10, 4, rng)).rank(), 4u);
}

TEST(QRTest, SingularSolveThrows) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // collinear columns
  }
  const std::vector<double> b = {1, 1, 1, 1};
  EXPECT_THROW(QR(a).solve(b), coloc::runtime_error);
}

TEST(QRTest, UnderdeterminedRejected) {
  Matrix a(2, 3);
  EXPECT_THROW(QR{a}, coloc::runtime_error);
}

TEST(QRTest, RhsLengthMismatchThrows) {
  Matrix a(4, 2, 1.0);
  a(0, 0) = 2.0;  // make full rank-ish
  a(1, 1) = 3.0;
  const std::vector<double> b = {1, 2, 3};
  EXPECT_THROW(QR(a).solve(b), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::linalg
