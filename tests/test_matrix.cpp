#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

namespace coloc::linalg {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  auto make = [] { Matrix m{{1, 2}, {3}}; };
  EXPECT_THROW(make(), coloc::runtime_error);
}

TEST(MatrixTest, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), coloc::runtime_error);
  EXPECT_THROW(m.at(0, 2), coloc::runtime_error);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(MatrixTest, ColumnExtractAndSet) {
  Matrix m{{1, 2}, {3, 4}};
  const Vector c1 = m.col(1);
  EXPECT_DOUBLE_EQ(c1[0], 2.0);
  EXPECT_DOUBLE_EQ(c1[1], 4.0);
  m.set_col(0, std::vector<double>{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
}

TEST(MatrixTest, Transpose) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, Arithmetic) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{1, 1}, {1, 1}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), 0.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, coloc::runtime_error);
}

TEST(Matmul, KnownProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matmul, IdentityIsNeutral) {
  const Matrix a{{1, 2}, {3, 4}};
  EXPECT_NEAR(frobenius_distance(matmul(a, Matrix::identity(2)), a), 0.0,
              1e-15);
}

TEST(Matmul, DimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(matmul(a, b), coloc::runtime_error);
}

TEST(VectorOps, DotAndNorm) {
  const std::vector<double> a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(VectorOps, LengthMismatchThrows) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(dot(a, b), coloc::runtime_error);
}

TEST(MatrixTest, ToStringContainsValues) {
  const Matrix m{{1.5}};
  EXPECT_NE(m.to_string().find("1.5"), std::string::npos);
}

}  // namespace
}  // namespace coloc::linalg
