// Copyright (c) 2026 GARCIA reproduction authors.
// Dense row-major float matrix with a packed, cache-blocked GEMM.
//
// This is the storage + BLAS-lite layer underneath the autograd engine in
// src/nn. It deliberately stays small: storage, shape checks, GEMM (with
// transpose flags), and a handful of elementwise helpers. Anything with a
// gradient lives in nn::ops instead.

#ifndef GARCIA_CORE_MATRIX_H_
#define GARCIA_CORE_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/macros.h"

namespace garcia::core {

class Rng;

/// Row-major float matrix. A row vector is a 1xN matrix; an embedding table
/// is an NxD matrix whose i-th row is the vector of entity i.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from a nested initializer list: Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  static Matrix Identity(size_t n);

  /// I.i.d. N(mean, stddev) entries.
  static Matrix Randn(size_t rows, size_t cols, Rng* rng, float mean = 0.0f,
                      float stddev = 1.0f);

  /// Xavier/Glorot uniform init for a (fan_in=rows, fan_out=cols) weight.
  static Matrix Xavier(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t i, size_t j) {
    GARCIA_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  float at(size_t i, size_t j) const {
    GARCIA_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t i) {
    GARCIA_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }
  const float* row(size_t i) const {
    GARCIA_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }

  /// C = alpha * op(A) @ op(B) + beta * C. op(X) is X or X^T according to
  /// the transpose flags; transposed operands are packed panel-by-panel
  /// inside the kernel, never materialized whole. C must already have the
  /// result shape. Dispatches through the packed, cache-blocked serial
  /// kernel in core/kernels.h, bit-identical to the naive triple loop for
  /// every transpose flag.
  static void Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a,
                   const Matrix& b, float beta, Matrix* c);

  /// Convenience: returns A @ B.
  static Matrix Matmul(const Matrix& a, const Matrix& b);

  /// this += other (same shape).
  void Add(const Matrix& other);
  /// this -= other (same shape).
  void Sub(const Matrix& other);
  /// this *= scalar.
  void Scale(float s);
  /// this = this ⊙ other (same shape).
  void Hadamard(const Matrix& other);
  /// Sets every entry to value.
  void Fill(float value);

  /// Sum of all entries.
  double Sum() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Max |entry|.
  float AbsMax() const;

  /// Copies row src of `from` into row dst of this (same cols).
  void CopyRowFrom(const Matrix& from, size_t src, size_t dst);

  /// True when shapes match and all entries differ by at most atol.
  bool AllClose(const Matrix& other, float atol = 1e-5f) const;

  /// Compact debug string ("Matrix(3x4)") with small matrices printed fully.
  std::string ToString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace garcia::core

#endif  // GARCIA_CORE_MATRIX_H_
