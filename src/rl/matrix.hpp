// Dense row-major matrix for the from-scratch neural network.
//
// The DQN of Fig. 4 is tiny (~10.5 k parameters), so a cache-friendly
// blocked ikj matrix product is all the "tensor library" we need; the
// repository stays free of external ML dependencies. The products run
// through the runtime-dispatched kernel layer (common/kernels.hpp): a
// scalar reference that keeps the historical bit-exact accumulation order,
// and an AVX2/FMA level selected by CPUID (override with CTJ_SIMD). The
// *_into kernels write into caller-owned buffers so the training hot path
// runs without per-step allocations. Per-element accumulation order matches
// the naive ikj product at every kernel level, so for a fixed binary and
// kernel level the result is deterministic — in particular identical
// whether a sweep runs sequentially or across threads.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace ctj::rl {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  /// He-style scaled normal init for layers followed by ReLU.
  static Matrix he_normal(std::size_t rows, std::size_t cols, Rng& rng);
  /// Build a 1×n row from a span.
  static Matrix row(std::span<const double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::span<double> row_span(std::size_t r);
  std::span<const double> row_span(std::size_t r) const;

  void fill(double value);

  /// Reshape to rows×cols, reusing the existing allocation when possible;
  /// contents are reset to `fill`.
  void resize(std::size_t rows, std::size_t cols, double fill = 0.0);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A·B.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = Aᵀ·B.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);
/// C = A·Bᵀ.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// Allocation-free variants: resize C (reusing its buffer) and overwrite.
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_at_b_into(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_a_bt_into(Matrix& c, const Matrix& a, const Matrix& b);
/// A·Bᵀ with a caller-owned scratch buffer for Bᵀ (the backward hot path:
/// no allocation once the scratch is warm).
void matmul_a_bt_into(Matrix& c, const Matrix& a, const Matrix& b,
                      Matrix& bt_scratch);

/// C += Aᵀ·B with C already shaped [a.cols × b.cols] (gradient accumulation).
void matmul_at_b_acc(Matrix& c, const Matrix& a, const Matrix& b);

}  // namespace ctj::rl
