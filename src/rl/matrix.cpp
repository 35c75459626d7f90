#include "rl/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/kernels.hpp"

namespace ctj::rl {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  CTJ_CHECK(rows > 0 && cols > 0);
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::he_normal(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double scale = std::sqrt(2.0 / static_cast<double>(rows));
  for (double& v : m.data_) v = rng.normal(0.0, scale);
  return m;
}

Matrix Matrix::row(std::span<const double> values) {
  Matrix m(1, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) m.data_[i] = values[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  CTJ_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  CTJ_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row_span(std::size_t r) {
  CTJ_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row_span(std::size_t r) const {
  CTJ_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(double value) {
  for (double& v : data_) v = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
  CTJ_CHECK(rows > 0 && cols > 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: "
                                          << a.rows() << "x" << a.cols()
                                          << " · " << b.rows() << "x"
                                          << b.cols());
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  c.resize(m, n, 0.0);
  kern::ops().matmul_acc(c.data(), a.data(), b.data(), m, kk, n, kk, 1);
}

void matmul_at_b_acc(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK(a.rows() == b.rows());
  CTJ_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  const std::size_t rows = a.rows(), n = b.cols(), ac = a.cols();
  // Row k adds the rank-1 term A[k,:]ᵀ·B[k,:] to C. Rows are applied in
  // increasing k, so each C element accumulates in the naive product's
  // order. Skipping exact-zero terms is bit-exact: each skipped contribution
  // is ±0.0, and a C entry can never hold -0.0 (it starts at +0.0, and
  // +0.0 + -0.0 = +0.0), so adding the zero would not have changed a bit.
  //
  // Each B row's nonzeros are counted once, without a branch. A sparse row
  // (the DQN's output gradient is one-hot per sample) touches at most
  // kSparseCap columns of C: only then are its column indices collected, and
  // it is added in place. A run of consecutive denser rows (the ReLU
  // hidden-layer gradients) goes through the kernel matmul as
  // C += (A_run)ᵀ·B_run, reading A_run in place as a strided operand: per
  // element that is the zero-skipping chain of one 1×1·1×n matmul_acc
  // (C[i,:] += A[k,i]·B[k,:]) per nonzero A[k,i] in increasing k, with the
  // same arithmetic at every kernel level.
  constexpr std::size_t kSparseCap = 8;
  const auto count_nonzeros = [&b, n](std::size_t k) {
    const double* brow = b.data() + k * n;
    std::size_t nz = 0;
    for (std::size_t j = 0; j < n; ++j) nz += brow[j] != 0.0 ? 1 : 0;
    return nz;
  };
  std::size_t nz_idx[kSparseCap];
  std::size_t nz = rows > 0 ? count_nonzeros(0) : 0;  // row k's count
  for (std::size_t k = 0; k < rows;) {
    if (nz <= kSparseCap) {
      const double* brow = b.data() + k * n;
      for (std::size_t j = 0, s = 0; s < nz; ++j) {
        if (brow[j] != 0.0) nz_idx[s++] = j;
      }
      const double* arow = a.data() + k * ac;
      for (std::size_t i = 0; i < ac; ++i) {
        const double aki = arow[i];
        if (aki == 0.0) continue;
        double* crow = c.data() + i * n;
        for (std::size_t s = 0; s < nz; ++s) {
          crow[nz_idx[s]] += aki * brow[nz_idx[s]];
        }
      }
      ++k;
      if (k < rows) nz = count_nonzeros(k);
      continue;
    }
    std::size_t k1 = k + 1;
    while (k1 < rows && (nz = count_nonzeros(k1)) > kSparseCap) ++k1;
    kern::ops().matmul_acc(c.data(), a.data() + k * ac, b.data() + k * n, ac,
                           k1 - k, n, /*rs=*/1, /*cs=*/ac);
    k = k1;
  }
}

void matmul_at_b_into(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK(a.rows() == b.rows());
  c.resize(a.cols(), b.cols(), 0.0);
  matmul_at_b_acc(c, a, b);
}

void matmul_a_bt_into(Matrix& c, const Matrix& a, const Matrix& b,
                      Matrix& bt_scratch) {
  // A·Bᵀ as transpose-then-multiply: the dot-product form walks B's rows
  // with a serial reduction the compiler cannot vectorize, while A·(Bᵀ)
  // reuses the SAXPY-shaped blocked kernel (and its zero-skip, which pays
  // off when A is a sparse gradient). Per element the k-accumulation order
  // is unchanged, so the result matches the dot-product form bit for bit.
  CTJ_CHECK(a.cols() == b.cols());
  const std::size_t kk = b.cols(), n = b.rows();
  bt_scratch.resize(kk, n);
  double* bt = bt_scratch.data();
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = b.data() + j * kk;
    for (std::size_t k = 0; k < kk; ++k) bt[k * n + j] = brow[k];
  }
  matmul_into(c, a, bt_scratch);
}

void matmul_a_bt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  Matrix bt_scratch;
  matmul_a_bt_into(c, a, b, bt_scratch);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(c, a, b);
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_a_bt_into(c, a, b);
  return c;
}

}  // namespace ctj::rl
