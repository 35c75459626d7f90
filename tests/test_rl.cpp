// Tests for the from-scratch RL stack: matrix algebra, MLP backprop
// (finite-difference gradient check), optimizers, the DQN agent (including
// the Fig. 4 architecture's parameter footprint and Double DQN) and tabular
// Q-learning (against a transcribed dense-table reference). The replay
// ring's tests live with its decoders in test_checkpoint.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "io/container.hpp"
#include "io/tensors.hpp"
#include "rl/dqn.hpp"
#include "rl/matrix.hpp"
#include "rl/nn.hpp"
#include "rl/qlearning.hpp"

#include "dense_ql_reference.hpp"

namespace ctj::rl {
namespace {

// --------------------------------------------------------------- matrix ----

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(Matrix, MatmulHandComputed) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, TransposedProductsMatchExplicit) {
  Rng rng(1);
  Matrix a = Matrix::he_normal(4, 3, rng);
  Matrix b = Matrix::he_normal(4, 5, rng);
  const Matrix atb = matmul_at_b(a, b);  // 3×5
  // Explicit transpose.
  Matrix at(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  const Matrix expected = matmul(at, b);
  for (std::size_t i = 0; i < atb.size(); ++i) {
    EXPECT_NEAR(atb.data()[i], expected.data()[i], 1e-12);
  }

  Matrix c = Matrix::he_normal(5, 3, rng);
  Matrix d = Matrix::he_normal(2, 3, rng);
  const Matrix cdt = matmul_a_bt(c, d);  // 5×2
  Matrix dt(3, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) dt.at(j, i) = d.at(i, j);
  }
  const Matrix expected2 = matmul(c, dt);
  for (std::size_t i = 0; i < cdt.size(); ++i) {
    EXPECT_NEAR(cdt.data()[i], expected2.data()[i], 1e-12);
  }
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), CheckFailure);
}

namespace {

Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  // Plain ikj triple loop with the same per-element k-accumulation order the
  // blocked kernel promises to preserve.
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
  return c;
}

Matrix random_dense(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

}  // namespace

TEST(Matrix, BlockedMatmulMatchesReference) {
  Rng rng(3);
  // Sizes straddling the blocking factors (32 in i, 128 in j), including
  // odd remainders and the shapes the Fig. 4 network actually multiplies.
  const std::size_t shapes[][3] = {
      {1, 24, 45}, {32, 45, 160}, {33, 7, 129}, {64, 64, 64}, {5, 200, 300}};
  for (const auto& s : shapes) {
    const Matrix a = random_dense(s[0], s[1], rng);
    const Matrix b = random_dense(s[1], s[2], rng);
    const Matrix expected = reference_matmul(a, b);
    Matrix c;
    matmul_into(c, a, b);
    ASSERT_EQ(c.rows(), expected.rows());
    ASSERT_EQ(c.cols(), expected.cols());
    for (std::size_t i = 0; i < c.size(); ++i) {
      // The kernel accumulates each element in the same k order as the
      // reference; the only admissible difference is the compiler
      // contracting mul+add in one loop but not the other, which is
      // bounded by ~1 ulp per term.
      const double tol =
          1e-12 * std::max(1.0, std::abs(expected.data()[i]));
      ASSERT_NEAR(c.data()[i], expected.data()[i], tol)
          << s[0] << "x" << s[1] << "x" << s[2] << " elem " << i;
    }
  }
}

TEST(Matrix, IntoVariantsReuseBuffersAndMatchAllocatingOnes) {
  Rng rng(4);
  const Matrix a = random_dense(6, 9, rng);
  const Matrix b = random_dense(9, 4, rng);
  Matrix c;
  matmul_into(c, a, b);
  const double* buffer = c.data();
  matmul_into(c, a, b);  // same shape: the allocation must be reused
  EXPECT_EQ(c.data(), buffer);
  const Matrix expected = matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.data()[i], expected.data()[i]);
  }

  const Matrix x = random_dense(9, 6, rng);
  Matrix atb;
  matmul_at_b_into(atb, x, b);
  const Matrix atb_expected = matmul_at_b(x, b);
  for (std::size_t i = 0; i < atb.size(); ++i) {
    EXPECT_EQ(atb.data()[i], atb_expected.data()[i]);
  }

  const Matrix y = random_dense(4, 9, rng);
  Matrix abt;
  matmul_a_bt_into(abt, a, y);
  const Matrix abt_expected = matmul_a_bt(a, y);
  for (std::size_t i = 0; i < abt.size(); ++i) {
    EXPECT_EQ(abt.data()[i], abt_expected.data()[i]);
  }
}

TEST(Matrix, AtBAccAccumulatesOnTopOfExisting) {
  Rng rng(5);
  const Matrix a = random_dense(7, 3, rng);
  const Matrix b = random_dense(7, 5, rng);
  Matrix acc(3, 5, 1.0);
  matmul_at_b_acc(acc, a, b);
  const Matrix product = matmul_at_b(a, b);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    // Near, not equal: accumulating term-by-term on top of 1.0 associates
    // the sum differently than 1.0 + (full product).
    EXPECT_NEAR(acc.data()[i], 1.0 + product.data()[i], 1e-12);
  }

  // Accumulation from zero is exactly the product — the case the backward
  // pass relies on after zero_grad.
  Matrix from_zero(3, 5, 0.0);
  matmul_at_b_acc(from_zero, a, b);
  for (std::size_t i = 0; i < from_zero.size(); ++i) {
    EXPECT_EQ(from_zero.data()[i], product.data()[i]);
  }
}

// matmul_at_b_acc as it was before runs of dense rows went through the
// kernel matmul: one dispatched C[i,:] += A[k,i]·B[k,:] per nonzero A[k,i]
// for a B row with more than eight nonzeros (a 1×1·1×n matmul_acc, the
// saxpy the kernel layer used to carry), an in-place update of the touched
// columns otherwise. This TU builds with rl/matrix.cpp's flags, so
// the in-place update contracts (or not) the same way in both.
void per_row_at_b_acc(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK(a.rows() == b.rows());
  CTJ_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  const auto& kernels = kern::ops();
  const std::size_t n = b.cols();
  const std::size_t ac = a.cols();
  // Sparse-row fast path: the DQN's output gradient is one-hot per sample
  // (Huber-clipped TD error on the taken action only), so the rank-1 update
  // from such a row touches one column of C, not n. Skipping exact-zero
  // terms is bit-exact: each skipped contribution is ±0.0, and a C entry can
  // never hold -0.0 (it starts at +0.0, and +0.0 + -0.0 = +0.0), so adding
  // the zero would not have changed a single bit.
  constexpr std::size_t kSparseCap = 8;
  std::size_t nz_idx[kSparseCap];
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.data() + k * ac;
    const double* brow = b.data() + k * n;
    std::size_t nz = 0;
    for (std::size_t j = 0; j < n && nz <= kSparseCap; ++j) {
      if (brow[j] != 0.0) {
        if (nz < kSparseCap) nz_idx[nz] = j;
        ++nz;
      }
    }
    if (nz == 0) continue;
    if (nz <= kSparseCap) {
      for (std::size_t i = 0; i < ac; ++i) {
        const double aki = arow[i];
        if (aki == 0.0) continue;
        double* crow = c.data() + i * n;
        for (std::size_t s = 0; s < nz; ++s) {
          crow[nz_idx[s]] += aki * brow[nz_idx[s]];
        }
      }
      continue;
    }
    for (std::size_t i = 0; i < ac; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      kernels.matmul_acc(c.data() + i * n, &aki, brow, 1, 1, n, 1, 1);
    }
  }
}

TEST(Matrix, AtBAccMatchesPerRowLoopBitExact) {
  // B interleaves dense rows (> 8 nonzeros, in runs of 1 to 13, so a run
  // spans several vector chunks of each level's strided nonzero pack),
  // sparse rows (1 to 8, both sides of the boundary) and all-zero rows; A is
  // ReLU-like.
  // Both operands carry -0.0. Two accumulations on top of each other must
  // match the per-row loop to the last bit at the active kernel level
  // (CTJ_SIMD picks it; the learner ctest label runs this at each one).
  const std::size_t nnz_per_row[] = {20, 45, 0, 3, 9,  8,  30, 22, 17, 0, 0,
                                     1,  9,  9, 12, 44, 45, 2,  23, 0, 31, 40,
                                     8,  10, 25, 26, 27, 28, 29, 5, 14, 7, 33,
                                     18, 40, 45, 11, 19, 27, 36, 9, 44, 21, 13,
                                     30};
  const std::size_t rows = std::size(nnz_per_row);
  const struct { std::size_t in, out; } shapes[] = {{45, 45}, {24, 45},
                                                    {45, 160}};
  Rng rng(31);
  for (const auto& s : shapes) {
    Matrix a(rows, s.in), b(rows, s.out);
    std::vector<std::size_t> cols(s.out);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t i = 0; i < s.in; ++i) {
        const double v = rng.normal();
        a.at(r, i) = v > 0.0 ? v : (i % 4 == 0 ? -0.0 : 0.0);
      }
      for (std::size_t j = 0; j < s.out; ++j) {
        b.at(r, j) = j % 2 == 0 ? -0.0 : 0.0;
        cols[j] = j;
      }
      const std::size_t nnz = std::min(nnz_per_row[r], s.out);
      for (std::size_t t = 0; t < nnz; ++t) {
        std::swap(cols[t], cols[t + rng.index(s.out - t)]);
        b.at(r, cols[t]) = rng.normal();
      }
    }
    Matrix c(s.in, s.out, 0.0), expected(s.in, s.out, 0.0);
    for (int pass = 0; pass < 2; ++pass) {
      matmul_at_b_acc(c, a, b);
      per_row_at_b_acc(expected, a, b);
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(c.data()[i]),
                std::bit_cast<std::uint64_t>(expected.data()[i]))
          << s.in << "x" << s.out << " elem " << i << " at "
          << kern::simd_level_name();
    }
  }
}

TEST(Matrix, ResizeReusesCapacityAndResetsContents) {
  Matrix m(10, 10, 3.0);
  m.resize(4, 6, -1.0);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.data()[i], -1.0);
  }
  m.resize(2, 2);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Matrix, SaveLoadRoundTrip) {
  // Matrices are stored as named tensors (the checkpoint weight format).
  Rng rng(2);
  Matrix m = Matrix::he_normal(7, 5, rng);
  io::ByteWriter out;
  io::write_tensors(out, {{"m", m.rows(), m.cols(),
                           std::vector<double>(m.data(), m.data() + m.size())}});
  const std::string bytes = out.take();
  io::ByteReader in(bytes);
  const std::vector<io::NamedTensor> loaded = io::read_tensors(in);
  in.expect_end();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "m");
  ASSERT_EQ(loaded[0].rows, 7u);
  ASSERT_EQ(loaded[0].cols, 5u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(loaded[0].data[i], m.data()[i]);
  }
}

// ------------------------------------------------------------------ MLP ----

TEST(Mlp, OutputShape) {
  Rng rng(3);
  Mlp net({4, 8, 8, 2}, rng);
  Matrix x(5, 4, 0.1);
  const Matrix y = net.forward_cached(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, ForwardConstMatchesForward) {
  Rng rng(4);
  Mlp net({3, 6, 2}, rng);
  Matrix x(2, 3);
  Rng data_rng(5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.normal();
  const Matrix a = net.forward_cached(x);
  const Matrix b = net.forward_const(x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Mlp, ParamCountFig4Architecture) {
  // The paper's deployed network stores ~10 664 float parameters (~42.7 KB).
  // Our Fig. 4 instantiation (3·8 inputs, two 45-neuron hidden layers,
  // 16·10 outputs) has 10 555 parameters ≈ 42.2 KB as 32-bit floats.
  Rng rng(6);
  Mlp net({24, 45, 45, 160}, rng);
  EXPECT_EQ(net.param_count(),
            24u * 45 + 45 + 45u * 45 + 45 + 45u * 160 + 160);
  EXPECT_EQ(net.param_count(), 10555u);
  EXPECT_NEAR(static_cast<double>(net.param_count() * 4) / 1024.0, 42.7, 2.0);
}

TEST(Mlp, GradientCheckFiniteDifferences) {
  // The decisive correctness test for manual backprop: analytic gradients
  // must match central finite differences on a scalar loss.
  Rng rng(7);
  Mlp net({3, 5, 4, 2}, rng);
  Matrix x(4, 3);
  Rng data_rng(8);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.normal();

  // Loss: sum of squares of outputs → dL/dy = 2y.
  auto loss = [&](Mlp& n) {
    const Matrix y = n.forward_const(x);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += y.data()[i] * y.data()[i];
    return l;
  };

  const Matrix y = net.forward_cached(x);
  Matrix grad(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i) grad.data()[i] = 2.0 * y.data()[i];
  net.zero_grad();
  net.backward(grad);

  const double eps = 1e-6;
  for (std::size_t layer = 0; layer < net.num_layers(); ++layer) {
    auto& w = net.layer(layer).weights();
    const auto& gw = net.layer(layer).weight_grad();
    for (std::size_t k = 0; k < w.size(); k += 3) {  // sample every 3rd param
      const double orig = w.data()[k];
      w.data()[k] = orig + eps;
      const double lp = loss(net);
      w.data()[k] = orig - eps;
      const double lm = loss(net);
      w.data()[k] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(gw.data()[k], numeric, 1e-4 * (1.0 + std::abs(numeric)))
          << "layer " << layer << " weight " << k;
    }
    auto& b = net.layer(layer).bias();
    const auto& gb = net.layer(layer).bias_grad();
    for (std::size_t k = 0; k < b.size(); ++k) {
      const double orig = b.data()[k];
      b.data()[k] = orig + eps;
      const double lp = loss(net);
      b.data()[k] = orig - eps;
      const double lm = loss(net);
      b.data()[k] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(gb.data()[k], numeric, 1e-4 * (1.0 + std::abs(numeric)))
          << "layer " << layer << " bias " << k;
    }
  }
}

TEST(Mlp, BackwardReluSelectMatchesMaskMultiplyBitExact) {
  // backward() zeroes the gradient at an inactive ReLU unit by selecting
  // +0.0; multiplying by a 0/1 mask would leave -0.0 wherever the upstream
  // gradient is negative. The reference drives the same layers with the
  // mask multiply. Weight, bias and input gradients must agree bit for bit,
  // and no bias gradient may be -0.0.
  const std::vector<std::size_t> sizes = {24, 45, 45, 160};
  Rng rng(41), ref_rng(41);
  Mlp net(sizes, rng);
  Mlp ref(sizes, ref_rng);
  Rng data_rng(42);
  const std::size_t batch = 32;
  Matrix x(batch, sizes.front()), grad_out(batch, sizes.back());
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.normal();
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_out.data()[i] = data_rng.normal();
  }

  net.zero_grad();
  net.forward_cached(x);
  net.backward(grad_out);

  const std::size_t layers = ref.num_layers();
  std::vector<Matrix> acts(layers + 1);
  acts[0] = x;
  for (std::size_t i = 0; i < layers; ++i) {
    ref.layer(i).forward_into(acts[i], acts[i + 1], i + 1 < layers);
  }
  ref.zero_grad();
  Matrix g = grad_out;      // masked by multiplying with a 0/1 mask
  Matrix g_sel = grad_out;  // masked by selecting +0.0
  std::size_t negative_zeros = 0;
  for (std::size_t i = layers; i-- > 0;) {
    if (i + 1 < layers) {
      const Matrix& h = acts[i + 1];
      for (std::size_t k = 0; k < g.size(); ++k) {
        g.data()[k] *= h.data()[k] > 0.0 ? 1.0 : 0.0;
        g_sel.data()[k] = h.data()[k] > 0.0 ? g_sel.data()[k] : 0.0;
        if (g.data()[k] == 0.0 && std::signbit(g.data()[k])) ++negative_zeros;
      }
    }
    ref.layer(i).backward_params_acc(acts[i], g);
    Matrix g_in, g_in_sel;
    ref.layer(i).grad_input_into(g, g_in);
    ref.layer(i).grad_input_into(g_sel, g_in_sel);
    for (std::size_t k = 0; k < g_in.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g_in.data()[k]),
                std::bit_cast<std::uint64_t>(g_in_sel.data()[k]))
          << "input gradient of layer " << i << " elem " << k;
    }
    g = std::move(g_in);
    g_sel = std::move(g_in_sel);
  }
  EXPECT_GT(negative_zeros, 0u) << "no negative gradient at an inactive unit";

  for (std::size_t i = 0; i < layers; ++i) {
    const Matrix& gw = net.layer(i).weight_grad();
    const Matrix& gw_ref = ref.layer(i).weight_grad();
    for (std::size_t k = 0; k < gw.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(gw.data()[k]),
                std::bit_cast<std::uint64_t>(gw_ref.data()[k]))
          << "layer " << i << " weight " << k;
    }
    const Matrix& gb = net.layer(i).bias_grad();
    const Matrix& gb_ref = ref.layer(i).bias_grad();
    for (std::size_t k = 0; k < gb.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(gb.data()[k]),
                std::bit_cast<std::uint64_t>(gb_ref.data()[k]))
          << "layer " << i << " bias " << k;
      EXPECT_FALSE(gb.data()[k] == 0.0 && std::signbit(gb.data()[k]))
          << "layer " << i << " bias " << k << " is -0.0";
    }
  }
}

TEST(Mlp, SgdLearnsLinearRegression) {
  Rng rng(9);
  Mlp net({2, 1}, rng);  // single linear layer
  Rng data_rng(10);
  // Target: y = 3x0 − 2x1 + 0.5.
  for (int step = 0; step < 4000; ++step) {
    Matrix x(8, 2);
    Matrix target(8, 1);
    for (std::size_t r = 0; r < 8; ++r) {
      x.at(r, 0) = data_rng.normal();
      x.at(r, 1) = data_rng.normal();
      target.at(r, 0) = 3.0 * x.at(r, 0) - 2.0 * x.at(r, 1) + 0.5;
    }
    const Matrix y = net.forward_cached(x);
    Matrix grad(8, 1);
    for (std::size_t r = 0; r < 8; ++r) {
      grad.at(r, 0) = 2.0 * (y.at(r, 0) - target.at(r, 0)) / 8.0;
    }
    net.zero_grad();
    net.backward(grad);
    sgd_step(net, 0.05);
  }
  EXPECT_NEAR(net.layer(0).weights().at(0, 0), 3.0, 0.01);
  EXPECT_NEAR(net.layer(0).weights().at(1, 0), -2.0, 0.01);
  EXPECT_NEAR(net.layer(0).bias().at(0, 0), 0.5, 0.01);
}

TEST(Mlp, AdamLearnsNonlinearFunction) {
  Rng rng(11);
  Mlp net({1, 24, 24, 1}, rng);
  AdamOptimizer adam(net, {.lr = 3e-3, .beta1 = 0.9, .beta2 = 0.999, .epsilon = 1e-8});
  Rng data_rng(12);
  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 1);
    Matrix target(16, 1);
    for (std::size_t r = 0; r < 16; ++r) {
      const double v = data_rng.uniform(-1.0, 1.0);
      x.at(r, 0) = v;
      target.at(r, 0) = std::sin(3.0 * v);
    }
    const Matrix y = net.forward_cached(x);
    Matrix grad(16, 1);
    for (std::size_t r = 0; r < 16; ++r) {
      grad.at(r, 0) = 2.0 * (y.at(r, 0) - target.at(r, 0)) / 16.0;
    }
    net.zero_grad();
    net.backward(grad);
    adam.step(net);
  }
  // Evaluate fit.
  double mse = 0.0;
  for (double v = -0.9; v <= 0.9; v += 0.1) {
    Matrix x(1, 1);
    x.at(0, 0) = v;
    const double y = net.forward_const(x).at(0, 0);
    mse += (y - std::sin(3.0 * v)) * (y - std::sin(3.0 * v));
  }
  EXPECT_LT(mse / 19.0, 0.02);
}

TEST(Mlp, CopyParametersMakesNetworksIdentical) {
  Rng rng(13);
  Mlp a({4, 6, 3}, rng), b({4, 6, 3}, rng);
  b.copy_parameters_from(a);
  Matrix x(2, 4, 0.3);
  const Matrix ya = a.forward_const(x), yb = b.forward_const(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, SaveLoadRoundTrip) {
  Rng rng(14);
  Mlp a({5, 7, 2}, rng), b({5, 7, 2}, rng);
  io::ByteWriter out;
  a.save_state(out);
  const std::string bytes = out.take();
  io::ByteReader in(bytes);
  const std::vector<io::NamedTensor> tensors = io::read_tensors(in);
  in.expect_end();
  b.check_tensors(tensors);
  b.apply_tensors(tensors);
  Matrix x(3, 5, -0.2);
  const Matrix ya = a.forward_const(x), yb = b.forward_const(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, HuberGradClamps) {
  EXPECT_DOUBLE_EQ(huber_grad(0.3), 0.3);
  EXPECT_DOUBLE_EQ(huber_grad(5.0), 1.0);
  EXPECT_DOUBLE_EQ(huber_grad(-5.0), -1.0);
}

// ------------------------------------------------------------------ DQN ----

DqnConfig small_config() {
  DqnConfig c;
  c.state_dim = 2;
  c.num_actions = 2;
  c.hidden = {16, 16};
  c.learning_rate = 2e-3;
  c.gamma = 0.5;
  c.reward_scale = 1.0;
  c.epsilon_start = 1.0;
  c.epsilon_end = 0.05;
  c.epsilon_decay_steps = 500;
  c.batch_size = 16;
  c.replay_capacity = 2000;
  c.min_replay_before_training = 64;
  c.target_sync_interval = 50;
  c.seed = 3;
  return c;
}

TEST(Dqn, EpsilonDecaysLinearly) {
  DqnAgent agent(small_config());
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  const std::vector<double> s = {0.0, 0.0};
  for (int i = 0; i < 250; ++i) {
    agent.observe({s, 0, 0.0, s, false});
  }
  EXPECT_NEAR(agent.epsilon(), 0.525, 0.01);
  for (int i = 0; i < 500; ++i) {
    agent.observe({s, 0, 0.0, s, false});
  }
  EXPECT_NEAR(agent.epsilon(), 0.05, 1e-9);
}

TEST(Dqn, QValuesHaveActionArity) {
  DqnAgent agent(small_config());
  const auto q = agent.q_values(std::vector<double>{0.1, -0.3});
  EXPECT_EQ(q.size(), 2u);
}

TEST(Dqn, LearnsContextualBandit) {
  // Two states; action must match the state to earn reward 1 (else 0).
  DqnAgent agent(small_config());
  Rng rng(4);
  for (int step = 0; step < 3000; ++step) {
    const bool which = rng.bernoulli(0.5);
    const std::vector<double> s = {which ? 1.0 : 0.0, which ? 0.0 : 1.0};
    const std::size_t a = agent.act(s);
    const double r = (a == (which ? 1u : 0u)) ? 1.0 : 0.0;
    const bool next_which = rng.bernoulli(0.5);
    const std::vector<double> s2 = {next_which ? 1.0 : 0.0,
                                    next_which ? 0.0 : 1.0};
    agent.observe({s, a, r, s2, false});
  }
  EXPECT_EQ(agent.act_greedy(std::vector<double>{0.0, 1.0}), 0u);
  EXPECT_EQ(agent.act_greedy(std::vector<double>{1.0, 0.0}), 1u);
}

TEST(Dqn, LearnsDelayedRewardChain) {
  // A 2-step chain: from state A, action 1 leads to state B (reward 0),
  // where action 1 earns reward 1. Requires bootstrapping through γ.
  auto config = small_config();
  config.gamma = 0.9;
  DqnAgent agent(config);
  Rng rng(5);
  const std::vector<double> A = {1.0, 0.0};
  const std::vector<double> B = {0.0, 1.0};
  for (int episode = 0; episode < 1200; ++episode) {
    const std::size_t a0 = agent.act(A);
    if (a0 == 1) {
      agent.observe({A, a0, 0.0, B, false});
      const std::size_t a1 = agent.act(B);
      agent.observe({B, a1, a1 == 1 ? 1.0 : 0.0, A, true});
    } else {
      agent.observe({A, a0, 0.0, A, true});
    }
  }
  EXPECT_EQ(agent.act_greedy(A), 1u);
  EXPECT_EQ(agent.act_greedy(B), 1u);
  // Q(A, 1) should approach γ·1 = 0.9.
  const auto qa = agent.q_values(A);
  EXPECT_NEAR(qa[1], 0.9, 0.25);
}

TEST(Dqn, SaveLoadPreservesPolicy) {
  DqnAgent a(small_config());
  const std::vector<double> s = {0.4, -0.8};
  // Perturb the network with a few training steps.
  for (int i = 0; i < 200; ++i) {
    a.observe({s, i % 2 == 0 ? 0u : 1u, 0.3, s, false});
  }
  // The deployment path: a CTJS container read back with load_policy().
  io::ContainerWriter out;
  a.save_state(out);
  DqnAgent b(small_config());
  b.load_policy(io::ContainerReader::from_bytes(out.to_bytes()));
  const auto qa = a.q_values(s), qb = b.q_values(s);
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_DOUBLE_EQ(qa[i], qb[i]);
  }
}

TEST(Dqn, DeployedSizeMatchesPaperScale) {
  DqnConfig c;  // defaults: 24-45-45-160
  DqnAgent agent(c);
  EXPECT_EQ(agent.param_count(), 10555u);
  EXPECT_NEAR(static_cast<double>(agent.deployed_size_bytes()) / 1024.0, 42.7,
              2.0);
}

// The DQN learner step the dense way: forward_cached, a one-hot gradient
// matrix through backward(), AdamOptimizer, and a full target forward for
// every row's bootstrap on every step (max over the row, or the entry at the
// online argmax for Double DQN). Built from the agent's construction
// stream, so its networks start where the agent's do, and rng() continues
// that stream the way the agent's replay sampling does.
class DenseLearnerReplica {
 public:
  explicit DenseLearnerReplica(const DqnConfig& config)
      : config_(config),
        rng_(config.seed),
        online_(layer_sizes(config), rng_),
        target_(layer_sizes(config), rng_),
        adam_(online_, {.lr = config.learning_rate,
                        .beta1 = 0.9,
                        .beta2 = 0.999,
                        .epsilon = 1e-8}) {
    target_.copy_parameters_from(online_);
  }

  Rng& rng() { return rng_; }
  const Mlp& online() const { return online_; }
  std::size_t steps() const { return steps_; }
  /// dLoss/dQ(s_i, a_i) of the last step.
  const std::vector<double>& grad() const { return g_; }

  /// One learner step; returns the minibatch mean Huber loss.
  double step(const Matrix& states, const Matrix& next_states,
              std::span<const std::size_t> actions,
              std::span<const double> rewards,
              std::span<const std::uint8_t> dones) {
    const std::size_t B = states.rows(), A = config_.num_actions;
    const Matrix& q = online_.forward_cached(states);
    target_.forward_scratch(next_states, next_q_, scratch_a_, scratch_b_);
    if (config_.double_dqn) {
      online_.forward_scratch(next_states, next_q_online_, scratch_a_,
                              scratch_b_);
    }
    std::vector<double> q_taken(B), next_v(B);
    for (std::size_t i = 0; i < B; ++i) {
      q_taken[i] = q.at(i, actions[i]);
      const Matrix& select = config_.double_dqn ? next_q_online_ : next_q_;
      next_v[i] = next_q_.at(i, argmax(select.row_span(i)));
    }
    kern::TdHuberArgs td;
    td.q_taken = q_taken.data();
    td.next_v = next_v.data();
    td.rewards = rewards.data();
    td.dones = dones.data();
    td.gamma = config_.gamma;
    td.reward_scale = config_.reward_scale;
    td.grad_div = static_cast<double>(B);
    td.batch = B;
    g_.resize(B);
    const double loss = kern::td_huber_batch(td, g_.data());

    grad_.resize(B, A);
    for (std::size_t i = 0; i < B; ++i) grad_.at(i, actions[i]) = g_[i];
    online_.zero_grad();
    online_.backward(grad_);
    adam_.step(online_);
    ++steps_;
    if (config_.target_tau > 0.0) {
      target_.lerp_parameters_from(online_, config_.target_tau);
    } else if (steps_ % config_.target_sync_interval == 0) {
      target_.copy_parameters_from(online_);
    }
    return loss / static_cast<double>(B);
  }

  /// The agent's online, target and Adam chunks hold exactly this replica's
  /// bytes.
  void expect_same_bytes(const DqnAgent& agent) const {
    io::ContainerWriter out;
    agent.save_state(out);
    const io::ContainerReader saved =
        io::ContainerReader::from_bytes(out.to_bytes());
    const auto bytes_of = [](const auto& part) {
      io::ByteWriter w;
      part.save_state(w);
      return w.take();
    };
    EXPECT_TRUE(saved.chunk(io::tags::kNetOnline) == bytes_of(online_));
    EXPECT_TRUE(saved.chunk(io::tags::kNetTarget) == bytes_of(target_));
    EXPECT_TRUE(saved.chunk(io::tags::kAdam) == bytes_of(adam_));
  }

 private:
  static std::vector<std::size_t> layer_sizes(const DqnConfig& config) {
    std::vector<std::size_t> sizes = {config.state_dim};
    sizes.insert(sizes.end(), config.hidden.begin(), config.hidden.end());
    sizes.push_back(config.num_actions);
    return sizes;
  }

  DqnConfig config_;
  Rng rng_;
  Mlp online_;
  Mlp target_;
  AdamOptimizer adam_;
  std::size_t steps_ = 0;
  Matrix next_q_, next_q_online_, scratch_a_, scratch_b_, grad_;
  std::vector<double> g_;
};

// The learner evaluates and backpropagates the online output layer only at
// the taken actions, evaluates the Double DQN target only at the online
// argmax, and Adam stops dividing by a bias correction once it is exactly
// 1.0. The dense replica runs the full path on the same minibatches. Past
// t = 356 (where 1 − 0.9ᵗ rounds to 1.0) and across a target sync, every
// online, target and Adam-moment bit must agree. Row 0 of each batch is
// terminal with reward equal to the current Q(s₀, a₀), so its TD gradient
// is exactly 0.
TEST(Dqn, TakenActionLearnerMatchesDenseReplica) {
  for (const bool double_dqn : {false, true}) {
    SCOPED_TRACE(double_dqn ? "double DQN" : "vanilla DQN");
    DqnConfig config;  // the paper net: 24-45-45-160, batch 32
    config.reward_scale = 1.0;  // a terminal row's TD target is its reward
    config.double_dqn = double_dqn;
    config.seed = 21;
    DqnAgent agent(config);
    DenseLearnerReplica replica(config);

    const std::size_t B = config.batch_size, A = config.num_actions;
    Rng data(77);
    Matrix states(B, config.state_dim), next_states(B, config.state_dim);
    std::vector<std::size_t> actions(B);
    std::vector<double> rewards(B);
    std::vector<std::uint8_t> dones(B);
    const std::size_t steps = 420;
    for (std::size_t step = 1; step <= steps; ++step) {
      for (std::size_t i = 0; i < states.size(); ++i) {
        states.data()[i] = data.bernoulli(0.3) ? 0.0 : data.normal();
        next_states.data()[i] = data.bernoulli(0.3) ? 0.0 : data.normal();
      }
      for (std::size_t i = 0; i < B; ++i) {
        actions[i] = data.index(A);
        rewards[i] = data.uniform(-2.0, 0.0);
        dones[i] = data.bernoulli(0.1) ? 1 : 0;
      }
      dones[0] = 1;
      rewards[0] = replica.online().forward_const(states).at(0, actions[0]);

      const double loss = agent.train_on_batch(states, next_states, actions,
                                               rewards, dones);
      const double replica_loss =
          replica.step(states, next_states, actions, rewards, dones);
      ASSERT_EQ(loss, replica_loss) << "step " << step;
      ASSERT_EQ(replica.grad()[0], 0.0);
    }
    ASSERT_GT(steps, config.target_sync_interval);
    ASSERT_EQ(1.0 - std::pow(0.9, static_cast<double>(steps)), 1.0);
    replica.expect_same_bytes(agent);
  }
}

// The agent keeps each replay slot's vanilla bootstrap until the target
// network changes or the slot is overwritten. The replica recomputes every
// row's bootstrap on every step from its own copy of the ring, sampled with
// the agent's stream. A small ring wraps several times, and a short sync
// interval crosses several target epochs; a Polyak target (a new epoch
// every step) and Double DQN (never cached) run the same path.
TEST(Dqn, BootstrapCacheMatchesUncachedReplica) {
  const struct {
    const char* name;
    double tau;
    bool double_dqn;
  } variants[] = {{"hard sync", 0.0, false},
                  {"Polyak target", 0.05, false},
                  {"double DQN", 0.0, true}};
  for (const auto& v : variants) {
    SCOPED_TRACE(v.name);
    DqnConfig config;  // the paper net: 24-45-45-160, batch 32
    config.replay_capacity = 96;
    config.min_replay_before_training = 48;
    config.target_sync_interval = 40;
    config.target_tau = v.tau;
    config.double_dqn = v.double_dqn;
    config.seed = 9;
    DqnAgent agent(config);
    DenseLearnerReplica replica(config);
    ReplayRing ring(config.replay_capacity, config.state_dim,
                    config.num_actions);
    Minibatch batch;

    Rng data(5);
    Transition t;
    t.state.resize(config.state_dim);
    t.next_state.resize(config.state_dim);
    const std::size_t slots = 400;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      for (std::size_t k = 0; k < config.state_dim; ++k) {
        t.state[k] = data.bernoulli(0.3) ? 0.0 : data.normal();
        t.next_state[k] = data.bernoulli(0.3) ? 0.0 : data.normal();
      }
      t.action = data.index(config.num_actions);
      t.reward = data.uniform(-200.0, 0.0);
      t.done = data.bernoulli(0.05);
      agent.observe(t);
      ring.push(t);
      if (ring.size() >= config.min_replay_before_training) {
        ring.sample_into(config.batch_size, replica.rng(), batch);
        replica.step(batch.states, batch.next_states, batch.actions,
                     batch.rewards, batch.dones);
      }
    }
    ASSERT_EQ(agent.gradient_steps(), replica.steps());
    ASSERT_GE(slots, 4 * config.replay_capacity);
    ASSERT_GE(replica.steps() / config.target_sync_interval, 3u);
    replica.expect_same_bytes(agent);
  }
}

// The learner has no zero_grad(): each Adam step consumes the gradients it
// applies. So between steps every online gradient must be +0.0, bit for
// bit: after a replay step, after a caller's minibatch, and in an agent
// that trained, was restored from a checkpoint and trained on.
TEST(Dqn, LearnerLeavesGradientsZero) {
  const auto expect_zero = [](const DqnAgent& agent, const char* when) {
    const Mlp& net = agent.online_network();
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      for (const Matrix* g :
           {&net.layer(l).weight_grad(), &net.layer(l).bias_grad()}) {
        for (std::size_t k = 0; k < g->size(); ++k) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g->data()[k]), 0u)
              << when << ": layer " << l << " entry " << k;
        }
      }
    }
  };
  DqnConfig config;  // the paper net: 24-45-45-160, batch 32
  config.replay_capacity = 128;
  config.min_replay_before_training = 64;
  config.seed = 13;
  DqnAgent agent(config);
  expect_zero(agent, "new agent");

  Rng data(3);
  Transition t;
  t.state.resize(config.state_dim);
  t.next_state.resize(config.state_dim);
  const auto next_transition = [&]() -> const Transition& {
    for (std::size_t k = 0; k < config.state_dim; ++k) {
      t.state[k] = data.bernoulli(0.3) ? 0.0 : data.normal();
      t.next_state[k] = data.bernoulli(0.3) ? 0.0 : data.normal();
    }
    t.action = data.index(config.num_actions);
    t.reward = data.uniform(-200.0, 0.0);
    t.done = data.bernoulli(0.05);
    return t;
  };
  for (std::size_t slot = 0; slot < 100; ++slot) {
    agent.observe(next_transition());
  }
  ASSERT_GT(agent.gradient_steps(), 0u);
  expect_zero(agent, "observe");
  ASSERT_TRUE(agent.train_step().has_value());
  expect_zero(agent, "train_step");

  const std::size_t B = config.batch_size;
  Matrix states(B, config.state_dim), next_states(B, config.state_dim);
  std::vector<std::size_t> actions(B);
  std::vector<double> rewards(B);
  std::vector<std::uint8_t> dones(B);
  for (std::size_t i = 0; i < B; ++i) {
    next_transition();
    std::copy(t.state.begin(), t.state.end(), states.row_span(i).begin());
    std::copy(t.next_state.begin(), t.next_state.end(),
              next_states.row_span(i).begin());
    actions[i] = t.action;
    rewards[i] = t.reward;
    dones[i] = t.done ? 1 : 0;
  }
  agent.train_on_batch(states, next_states, actions, rewards, dones);
  expect_zero(agent, "train_on_batch");

  io::ContainerWriter out;
  agent.save_state(out);
  const io::ContainerReader saved =
      io::ContainerReader::from_bytes(out.to_bytes());
  agent.load_state(saved);
  expect_zero(agent, "load_state");
  DqnAgent restored(config);
  restored.load_state(saved);
  expect_zero(restored, "load_state into a new agent");
  ASSERT_TRUE(restored.train_step().has_value());
  expect_zero(restored, "train_step after load_state");
}

TEST(Dqn, TrainStepRequiresMinimumReplay) {
  DqnAgent agent(small_config());
  EXPECT_FALSE(agent.train_step().has_value());
}

TEST(Dqn, EpsilonGreedyExploresUniformlyOverAllActions) {
  // Textbook convention: with probability ε the agent draws uniformly over
  // ALL actions, so the greedy action's total frequency is 1−ε+ε/A and every
  // other action's is ε/A.
  auto config = small_config();
  config.num_actions = 4;
  config.hidden = {8, 8};
  config.epsilon_start = 0.4;
  config.epsilon_end = 0.4;  // hold ε constant for the frequency estimate
  DqnAgent agent(config);
  const std::vector<double> state = {0.3, -0.2};
  const std::size_t greedy = agent.act_greedy(state);
  const int trials = 20000;
  std::vector<int> counts(config.num_actions, 0);
  for (int i = 0; i < trials; ++i) ++counts[agent.act(state)];
  const double eps = 0.4;
  const double uniform = eps / static_cast<double>(config.num_actions);
  for (std::size_t a = 0; a < config.num_actions; ++a) {
    const double freq = static_cast<double>(counts[a]) / trials;
    const double expected = (a == greedy) ? 1.0 - eps + uniform : uniform;
    EXPECT_NEAR(freq, expected, 0.02) << "action " << a;
  }
}

// ------------------------------------------------------------ Q-learning ----

TEST(QLearning, LearnsContextualBandit) {
  rl::QLearningConfig config;
  config.state_dim = 2;
  config.num_actions = 2;
  config.bins_per_dim = 2;
  config.epsilon_decay_steps = 500;
  config.reward_scale = 1.0;
  config.seed = 1;
  rl::QLearningAgent agent(config);
  Rng rng(2);
  for (int step = 0; step < 4000; ++step) {
    const bool which = rng.bernoulli(0.5);
    const std::vector<double> s = {which ? 1.0 : 0.0, which ? 0.0 : 1.0};
    const std::size_t a = agent.act(s);
    const double r = (a == (which ? 1u : 0u)) ? 1.0 : 0.0;
    agent.update(s, a, r, s);
  }
  EXPECT_EQ(agent.act_greedy(std::vector<double>{0.0, 1.0}), 0u);
  EXPECT_EQ(agent.act_greedy(std::vector<double>{1.0, 0.0}), 1u);
}

TEST(QLearning, TableGrowsWithVisitedStates) {
  rl::QLearningConfig config;
  config.state_dim = 3;
  config.num_actions = 4;
  config.bins_per_dim = 4;
  config.seed = 3;
  rl::QLearningAgent agent(config);
  Rng rng(4);
  std::vector<double> s(3);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : s) v = rng.uniform();
    agent.update(s, 0, 0.1, s);
  }
  EXPECT_GT(agent.table_size(), 20u);
  EXPECT_LE(agent.table_size(), 64u);  // at most bins^dims distinct keys
}

TEST(QLearning, EpsilonDecays) {
  rl::QLearningConfig config;
  config.state_dim = 1;
  config.num_actions = 2;
  config.epsilon_decay_steps = 100;
  rl::QLearningAgent agent(config);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  const std::vector<double> s = {0.5};
  for (int i = 0; i < 100; ++i) agent.update(s, 0, 0.0, s);
  EXPECT_NEAR(agent.epsilon(), config.epsilon_end, 1e-9);
}

std::string ql_bytes(const QLearningAgent& agent) {
  io::ByteWriter out;
  agent.save_state(out);
  return out.take();
}

std::string ql_bytes(const DenseQlReference& agent) {
  io::ByteWriter out;
  agent.save_state(out);
  return out.take();
}

TEST(QLearning, SparseRowsMatchDenseReference) {
  // The agent stores only the actions written to a row; the dense
  // transcription stores all six. Few actions and a 3-bit key space make
  // rows collide, fill up and go all-negative; the starting table holds a
  // -0.0 row, a NaN behind a stored first action, and a zero row.
  for (const double learning_rate : {0.5, 1.0}) {
    SCOPED_TRACE(learning_rate);
    QLearningConfig config;
    config.state_dim = 3;
    config.num_actions = 6;
    config.bins_per_dim = 2;
    config.learning_rate = learning_rate;
    config.reward_scale = 1.0;
    config.epsilon_decay_steps = 400;
    config.seed = 17;
    QLearningAgent agent(config);
    DenseQlReference dense(config);

    const auto state_of = [](std::uint64_t bits) {
      std::vector<double> s(3);
      for (std::size_t d = 0; d < 3; ++d) s[d] = (bits >> d & 1) ? 0.75 : 0.25;
      return s;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    dense.table[dense.key_of(state_of(0))] = {-0.0, -0.0, 0.0, -1.0, 0.0, -0.0};
    dense.table[dense.key_of(state_of(1))] = {-2.0, -3.0, 0.0, nan, 0.5, -1.0};
    dense.table[dense.key_of(state_of(2))] = std::vector<double>(6, 0.0);
    const std::string start = ql_bytes(dense);
    io::ByteReader in(start);
    agent.load_state(in);
    ASSERT_EQ(ql_bytes(agent), start);

    Rng rng(23);
    for (int step = 0; step < 3000; ++step) {
      const std::vector<double> s = state_of(rng.index(8));
      const std::vector<double> s2 =
          rng.bernoulli(0.2) ? s : state_of(rng.index(8));
      const std::size_t a = agent.act(s);
      ASSERT_EQ(a, dense.act(s)) << "step " << step;
      static constexpr double kRewards[] = {0.0, -0.0, -1.0, -4.0, 2.0, -0.25};
      const double reward = kRewards[rng.index(6)];
      agent.update(s, a, reward, s2);
      dense.update(s, a, reward, s2);
      ASSERT_EQ(agent.act_greedy(s), dense.act_greedy(s)) << "step " << step;
      ASSERT_EQ(agent.act_greedy(s2), dense.act_greedy(s2)) << "step " << step;
      ASSERT_EQ(ql_bytes(agent), ql_bytes(dense)) << "step " << step;
    }
    // The run reached what it is meant to cover.
    std::size_t full = 0;
    std::size_t negative = 0;
    for (const auto& [key, row] : dense.table) {
      full += std::none_of(row.begin(), row.end(), [](double q) {
        return std::bit_cast<std::uint64_t>(q) == 0;
      });
      negative += std::all_of(row.begin(), row.end(),
                              [](double q) { return q < 0.0; });
    }
    EXPECT_EQ(dense.table.size(), 8u);
    EXPECT_GT(full, 0u);
    EXPECT_GT(negative, 0u);
  }
}

// ------------------------------------------------------------ Double DQN ----

TEST(DoubleDqn, TrainsAndActs) {
  rl::DqnConfig config;
  config.state_dim = 2;
  config.num_actions = 2;
  config.hidden = {16};
  config.double_dqn = true;
  config.min_replay_before_training = 32;
  config.reward_scale = 1.0;
  config.seed = 5;
  rl::DqnAgent agent(config);
  Rng rng(6);
  for (int step = 0; step < 1500; ++step) {
    const bool which = rng.bernoulli(0.5);
    const std::vector<double> s = {which ? 1.0 : 0.0, which ? 0.0 : 1.0};
    const std::size_t a = agent.act(s);
    const double r = (a == (which ? 1u : 0u)) ? 1.0 : 0.0;
    agent.observe({s, a, r, s, false});
  }
  EXPECT_EQ(agent.act_greedy(std::vector<double>{1.0, 0.0}), 1u);
}

}  // namespace
}  // namespace ctj::rl
