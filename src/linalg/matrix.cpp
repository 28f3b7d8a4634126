#include "linalg/matrix.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace coloc::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    COLOC_CHECK_MSG(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  COLOC_CHECK_MSG(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  COLOC_CHECK_MSG(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

Vector Matrix::col(std::size_t c) const {
  COLOC_CHECK_MSG(c < cols_, "column index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_col(std::size_t c, std::span<const double> values) {
  COLOC_CHECK_MSG(c < cols_, "column index out of range");
  COLOC_CHECK_MSG(values.size() == rows_, "column length mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  COLOC_CHECK_MSG(same_shape(other), "shape mismatch in Matrix +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  COLOC_CHECK_MSG(same_shape(other), "shape mismatch in Matrix -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  COLOC_CHECK_MSG(a.cols() == b.rows(), "inner dimensions must match");
  Matrix c(a.rows(), b.cols(), 0.0);
  // i-k-j loop order keeps the innermost accesses sequential in b and c.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const auto brow = b.row(k);
      auto crow = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

double dot(std::span<const double> a, std::span<const double> b) {
  COLOC_CHECK_MSG(a.size() == b.size(), "dot length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double frobenius_distance(const Matrix& a, const Matrix& b) {
  COLOC_CHECK_MSG(a.same_shape(b), "shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace coloc::linalg
