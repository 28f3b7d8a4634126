#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace coloc::linalg {
namespace {

TEST(EigenSym, DiagonalMatrix) {
  const Matrix a{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}};
  const EigenResult e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
}

TEST(EigenSym, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const EigenResult e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(EigenSym, VectorsAreOrthonormal) {
  coloc::Rng rng(1);
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i; j < 6; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
  const EigenResult e = eigen_symmetric(a);
  const Matrix vtv = matmul(e.vectors.transposed(), e.vectors);
  EXPECT_NEAR(frobenius_distance(vtv, Matrix::identity(6)), 0.0, 1e-9);
}

TEST(EigenSym, ReconstructsMatrix) {
  coloc::Rng rng(2);
  Matrix a(5, 5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i; j < 5; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
  const EigenResult e = eigen_symmetric(a);
  // A = V diag(w) V^T
  Matrix vd = e.vectors;
  for (std::size_t c = 0; c < 5; ++c)
    for (std::size_t r = 0; r < 5; ++r) vd(r, c) *= e.values[c];
  const Matrix rebuilt = matmul(vd, e.vectors.transposed());
  EXPECT_NEAR(frobenius_distance(rebuilt, a), 0.0, 1e-8);
}

TEST(EigenSym, EigenvalueEquationHolds) {
  const Matrix a{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  const EigenResult e = eigen_symmetric(a);
  const Matrix av = matmul(a, e.vectors);
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_NEAR(av(i, k), e.values[k] * e.vectors(i, k), 1e-9);
}

TEST(EigenSym, SortedDescending) {
  coloc::Rng rng(3);
  Matrix a(7, 7);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = i; j < 7; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
  const EigenResult e = eigen_symmetric(a);
  for (std::size_t i = 1; i < e.values.size(); ++i)
    EXPECT_GE(e.values[i - 1], e.values[i]);
}

TEST(EigenSym, TraceEqualsEigenvalueSum) {
  const Matrix a{{5, 2}, {2, 1}};
  const EigenResult e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0] + e.values[1], 6.0, 1e-10);
}

TEST(EigenSym, RejectsAsymmetric) {
  const Matrix a{{1, 2}, {3, 4}};
  EXPECT_THROW(eigen_symmetric(a), coloc::runtime_error);
}

TEST(EigenSym, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(eigen_symmetric(a), coloc::runtime_error);
}

TEST(EigenSym, OneByOne) {
  const Matrix a{{7}};
  const EigenResult e = eigen_symmetric(a);
  EXPECT_DOUBLE_EQ(e.values[0], 7.0);
  EXPECT_DOUBLE_EQ(std::abs(e.vectors(0, 0)), 1.0);
}

}  // namespace
}  // namespace coloc::linalg
