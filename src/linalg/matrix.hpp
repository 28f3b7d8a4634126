// Dense row-major matrix/vector types for the regression and NN modules.
//
// The library's ML workloads are small (hundreds to thousands of rows, at
// most a few dozen columns), so clarity and correctness dominate; we still
// keep storage contiguous and loops cache-friendly.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace coloc::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshapes in place. Element values are unspecified afterwards (new
  /// cells are zero, surviving cells keep whatever landed there); the
  /// backing vector's capacity is retained, so hot paths that assemble a
  /// batch per call reuse their allocation once warmed up.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  Vector col(std::size_t c) const;
  void set_col(std::size_t c, std::span<const double> values);

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B with the plain i-k-j loop. Tests rebuild factorizations with
/// it; the MLP's GEMM is gemm_bias (linalg/gemm_batch.hpp).
Matrix matmul(const Matrix& a, const Matrix& b);

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);

/// Frobenius norm of (a - b); used by tests.
double frobenius_distance(const Matrix& a, const Matrix& b);

}  // namespace coloc::linalg
