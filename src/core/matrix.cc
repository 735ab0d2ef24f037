#include "core/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/kernels.h"
#include "core/rng.h"

namespace garcia::core {

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    GARCIA_CHECK_EQ(r.size(), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.at(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Randn(size_t rows, size_t cols, Rng* rng, float mean,
                     float stddev) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) {
    x = static_cast<float>(rng->Normal(mean, stddev));
  }
  return m;
}

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  const double bound = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& x : m.data_) {
    x = static_cast<float>(rng->Uniform(-bound, bound));
  }
  return m;
}

void Matrix::Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix* c) {
  // The packed kernel reads strided op(A)/op(B) during panel packing, so
  // transpose flags cost no extra materialization here.
  kernels::Gemm(trans_a, trans_b, alpha, a, b, beta, c);
}

Matrix Matrix::Matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  return c;
}

void Matrix::Add(const Matrix& other) {
  GARCIA_CHECK_EQ(rows_, other.rows_);
  GARCIA_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Sub(const Matrix& other) {
  GARCIA_CHECK_EQ(rows_, other.rows_);
  GARCIA_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::Scale(float s) {
  for (auto& x : data_) x *= s;
}

void Matrix::Hadamard(const Matrix& other) {
  GARCIA_CHECK_EQ(rows_, other.rows_);
  GARCIA_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Matrix::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

float Matrix::AbsMax() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

void Matrix::CopyRowFrom(const Matrix& from, size_t src, size_t dst) {
  GARCIA_CHECK_EQ(cols_, from.cols_);
  GARCIA_CHECK_LT(src, from.rows_);
  GARCIA_CHECK_LT(dst, rows_);
  std::memcpy(row(dst), from.row(src), cols_ * sizeof(float));
}

bool Matrix::AllClose(const Matrix& other, float atol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")";
  if (rows_ <= 8 && cols_ <= 8) {
    os << " [";
    for (size_t i = 0; i < rows_; ++i) {
      os << (i == 0 ? "[" : ", [");
      for (size_t j = 0; j < cols_; ++j) {
        os << (j == 0 ? "" : ", ") << at(i, j);
      }
      os << "]";
    }
    os << "]";
  }
  return os.str();
}

}  // namespace garcia::core
