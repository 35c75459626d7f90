// SIMD kernel layer: scalar vs AVX2/AVX-512 parity (bit-exact where
// promised, ULP-bounded where FMA contraction is allowed), each level's
// matmul against its own per-element chain, gather_dot against each level's
// own matmul, TD/Huber and Adam semantics against straightforward
// references, and the CTJ_SIMD dispatch resolver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/kernels.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "rl/nn.hpp"

namespace ctj {
namespace {

using kern::KernelOps;
using kern::SimdLevel;
using kern::TdHuberArgs;

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

/// Every SIMD level the build carries AND this CPU can execute. Parity tests
/// loop over these so the AVX-512 level gets the same coverage as AVX2
/// wherever hardware allows.
std::vector<const KernelOps*> simd_levels() {
  std::vector<const KernelOps*> levels;
  if (kern::cpu_supports_avx2() && kern::avx2_ops() != nullptr) {
    levels.push_back(kern::avx2_ops());
  }
  if (kern::cpu_supports_avx512() && kern::avx512_ops() != nullptr) {
    levels.push_back(kern::avx512_ops());
  }
  return levels;
}

#define REQUIRE_SIMD(levels_var)                                    \
  const std::vector<const KernelOps*> levels_var = simd_levels();   \
  if (levels_var.empty())                                           \
  GTEST_SKIP() << "no SIMD kernel level available on this CPU/build"

TEST(KernelDispatch, ResolveLevelHonorsOverridesAndCpu) {
  const bool have_avx2 = kern::avx2_ops() != nullptr;
  const bool have_avx512 = kern::avx512_ops() != nullptr;
  // Explicit off/scalar wins regardless of CPU capabilities.
  EXPECT_EQ(kern::resolve_level("off", true, true), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("scalar", true, true), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("OFF", true, true), SimdLevel::kScalar);
  // No CPU support at all -> scalar whatever was asked.
  EXPECT_EQ(kern::resolve_level(nullptr, false, false), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("", false, false), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("avx2", false, false), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("bogus", false, false), SimdLevel::kScalar);
  if (have_avx2) {
    EXPECT_EQ(kern::resolve_level("avx2", true, false), SimdLevel::kAvx2);
    EXPECT_EQ(kern::resolve_level("AVX2", true, false), SimdLevel::kAvx2);
    EXPECT_EQ(kern::resolve_level(nullptr, true, false), SimdLevel::kAvx2);
    EXPECT_EQ(kern::resolve_level("", true, false), SimdLevel::kAvx2);
    // Unknown values warn and fall back to auto-detection.
    EXPECT_EQ(kern::resolve_level("bogus", true, false), SimdLevel::kAvx2);
    // Pinning avx2 on an AVX-512 machine must not upgrade.
    EXPECT_EQ(kern::resolve_level("avx2", true, true), SimdLevel::kAvx2);
  }
  if (have_avx512) {
    EXPECT_EQ(kern::resolve_level("avx512", true, true), SimdLevel::kAvx512);
    EXPECT_EQ(kern::resolve_level("AVX512", true, true), SimdLevel::kAvx512);
    // Auto-detection prefers the widest usable level.
    EXPECT_EQ(kern::resolve_level(nullptr, true, true), SimdLevel::kAvx512);
    EXPECT_EQ(kern::resolve_level("", true, true), SimdLevel::kAvx512);
    EXPECT_EQ(kern::resolve_level("bogus", true, true), SimdLevel::kAvx512);
  }
  if (have_avx2) {
    // avx512 requested on a CPU without it falls back to the best level,
    // not to scalar.
    EXPECT_EQ(kern::resolve_level("avx512", true, false), SimdLevel::kAvx2);
  }
}

TEST(KernelDispatch, ActiveOpsNamedConsistently) {
  const std::string name = kern::simd_level_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512");
  EXPECT_STREQ(kern::ops().name, name.c_str());
}

TEST(KernelParity, MatmulUlpBounded) {
  REQUIRE_SIMD(levels);
  const KernelOps& scalar = kern::scalar_ops();
  // Shapes cover the DQN layers plus full stripes and masked remainder
  // stripes (64 columns per stripe in the AVX-512 level, 48 in AVX2).
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 24, 45},  {32, 24, 45}, {32, 45, 45},  {32, 45, 160},
      {45, 32, 160}, {3, 7, 5},   {2, 4, 17},    {8, 16, 33},
      {4, 12, 67},  {16, 24, 130},
  };
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(11);
    for (const auto& s : shapes) {
      const auto a = random_vec(s.m * s.k, rng);
      const auto b = random_vec(s.k * s.n, rng);
      std::vector<double> c_ref(s.m * s.n, 0.0);
      std::vector<double> c_simd(s.m * s.n, 0.0);
      scalar.matmul_acc(c_ref.data(), a.data(), b.data(), s.m, s.k, s.n, s.k,
                        1);
      simd->matmul_acc(c_simd.data(), a.data(), b.data(), s.m, s.k, s.n, s.k,
                       1);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        // Condition-aware bound: both levels run the same k-order sum, the
        // only divergence is one rounding per FMA, so the difference is tiny
        // relative to Σ|a·b| even when the signed sum cancels.
        const std::size_t row = i / s.n, col = i % s.n;
        double abs_sum = 0.0;
        for (std::size_t k = 0; k < s.k; ++k) {
          abs_sum += std::abs(a[row * s.k + k] * b[k * s.n + col]);
        }
        EXPECT_LE(std::abs(c_ref[i] - c_simd[i]), 1e-13 * (abs_sum + 1.0))
            << "matmul " << s.m << "x" << s.k << "x" << s.n << " elem " << i
            << ": " << c_ref[i] << " vs " << c_simd[i];
      }
    }
  }
}

TEST(KernelParity, MatmulSkipsExactZeros) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(12);
    // One-hot A rows (the DQN output gradient): both levels must produce the
    // single-term products exactly.
    const std::size_t m = 6, k = 160, n = 45;
    std::vector<double> a(m * k, 0.0);
    for (std::size_t i = 0; i < m; ++i) a[i * k + rng.index(k)] = rng.normal();
    const auto b = random_vec(k * n, rng);
    std::vector<double> c_ref(m * n, 0.0), c_simd(m * n, 0.0);
    kern::scalar_ops().matmul_acc(c_ref.data(), a.data(), b.data(), m, k, n,
                                  k, 1);
    simd->matmul_acc(c_simd.data(), a.data(), b.data(), m, k, n, k, 1);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      EXPECT_EQ(c_ref[i], c_simd[i]);
    }
  }
}

TEST(KernelParity, MatmulMatchesOwnFmaChainBitExact) {
  // What keeps checkpoints identical across a rewrite of the SIMD matmul:
  // every C element is one chain over the nonzero a[i,k] in increasing k,
  // started from C's old value — fused (std::fma) at the SIMD levels, plain
  // mul+add at the scalar level (this TU compiles without contraction) —
  // whatever stripe or masked tail lane the element falls in, and whether A
  // is read row-major (strides (k, 1)) or as the transpose of a row-major
  // [k × m] buffer (strides (1, m)). Widths 1..70, 130 and 160 hit every
  // tail width of both levels' stripes; depths 1..17, 24, 45, 64 and 65 hit
  // every tail of both levels' nonzero packs; m straddles the 32-row packing
  // chunk. A is ReLU-like with +0.0 and -0.0 entries, and row 1 is all
  // zero. Sentinels past C's end catch a masked store that writes a dead
  // lane.
  std::vector<const KernelOps*> levels = simd_levels();
  levels.insert(levels.begin(), &kern::scalar_ops());
  constexpr std::size_t kGuard = 8;
  const auto check = [](const KernelOps& ops, std::size_t m, std::size_t kk,
                        std::size_t n, bool transposed, Rng& rng) {
    const bool fused = &ops != &kern::scalar_ops();
    // Entry (i, k) of A sits at a[i * rs + k * cs].
    const std::size_t rs = transposed ? 1 : kk, cs = transposed ? m : 1;
    auto a = random_vec(m * kk, rng);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] <= 0.0) a[i] = i % 3 == 0 ? -0.0 : 0.0;
    }
    if (m > 1) {
      for (std::size_t k = 0; k < kk; ++k) a[rs + k * cs] = 0.0;
    }
    const auto b = random_vec(kk * n, rng);
    auto c = random_vec(m * n + kGuard, rng);
    const auto c0 = c;
    ops.matmul_acc(c.data(), a.data(), b.data(), m, kk, n, rs, cs);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double ref = c0[i * n + j];
        for (std::size_t k = 0; k < kk; ++k) {
          const double aik = a[i * rs + k * cs];
          if (aik == 0.0) continue;
          ref = fused ? std::fma(aik, b[k * n + j], ref)
                      : ref + aik * b[k * n + j];
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(c[i * n + j]),
                  std::bit_cast<std::uint64_t>(ref))
            << "m=" << m << " k=" << kk << " n=" << n
            << (transposed ? " transposed" : " row-major") << " elem (" << i
            << ", " << j << ")";
      }
    }
    for (std::size_t g = m * n; g < c.size(); ++g) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(c[g]),
                std::bit_cast<std::uint64_t>(c0[g]))
          << "m=" << m << " k=" << kk << " n=" << n << " wrote past C";
    }
  };
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 70; ++n) widths.push_back(n);
  widths.push_back(130);
  widths.push_back(160);
  std::vector<std::size_t> depths;
  for (std::size_t kk = 1; kk <= 17; ++kk) depths.push_back(kk);
  for (const std::size_t kk : {24u, 45u, 64u, 65u}) depths.push_back(kk);
  for (const KernelOps* ops : levels) {
    SCOPED_TRACE(ops->name);
    Rng rng(21);
    for (const bool transposed : {false, true}) {
      for (const std::size_t m : {1u, 31u, 32u, 33u, 65u}) {
        for (const std::size_t n : widths) {
          check(*ops, m, 11, n, transposed, rng);
          if (HasFatalFailure()) return;
        }
        for (const std::size_t kk : depths) {
          for (const std::size_t n : {3u, 45u, 70u}) {
            check(*ops, m, kk, n, transposed, rng);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(KernelParity, GatherDotMatchesMatmulEntriesBitExact) {
  // gather_dot is the DQN learner's taken-action output layer: at every
  // level it must reproduce that level's dense product at (i, col[i]) to
  // the last bit. ReLU-like rows carry exact zeros and -0.0 (both skipped
  // by every level), and row 1 is all zero.
  std::vector<const KernelOps*> levels = simd_levels();
  levels.insert(levels.begin(), &kern::scalar_ops());
  const struct { std::size_t m, k, n; } shapes[] = {
      {32, 45, 160}, {5, 24, 45}, {9, 7, 17}, {3, 13, 5}};
  for (const KernelOps* ops : levels) {
    SCOPED_TRACE(ops->name);
    Rng rng(18);
    for (const auto& s : shapes) {
      auto a = random_vec(s.m * s.k, rng);
      for (double& x : a) x = x > 0.0 ? x : 0.0;
      for (std::size_t i = 0; i < a.size(); i += 5) {
        if (a[i] == 0.0) a[i] = -0.0;
      }
      std::fill(a.begin() + s.k, a.begin() + 2 * s.k, 0.0);
      const auto b = random_vec(s.k * s.n, rng);
      std::vector<std::size_t> col(s.m);
      for (std::size_t i = 0; i < s.m; ++i) col[i] = rng.index(s.n);
      col[s.m - 1] = s.n - 1;

      std::vector<double> c(s.m * s.n, 0.0);
      ops->matmul_acc(c.data(), a.data(), b.data(), s.m, s.k, s.n, s.k, 1);
      std::vector<double> out(s.m, 1.0);
      ops->gather_dot(out.data(), a.data(), b.data(), col.data(), s.m, s.k,
                      s.n);
      for (std::size_t i = 0; i < s.m; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(c[i * s.n + col[i]]))
            << s.m << "x" << s.k << "x" << s.n << " row " << i;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[1]),
                std::bit_cast<std::uint64_t>(0.0));

      if (ops == &kern::scalar_ops()) {
        // Straight-line reference (this TU compiles without contraction).
        for (std::size_t i = 0; i < s.m; ++i) {
          double ref = 0.0;
          for (std::size_t k = 0; k < s.k; ++k) {
            const double aik = a[i * s.k + k];
            if (aik != 0.0) ref += aik * b[k * s.n + col[i]];
          }
          EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                    std::bit_cast<std::uint64_t>(ref))
              << "row " << i;
        }
      }
    }
  }
}

TEST(KernelParity, BiasActBitExact) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(14);
    for (const bool relu : {false, true}) {
      for (std::size_t cols : {1u, 5u, 45u, 160u}) {
        const std::size_t rows = 9;
        const auto bias = random_vec(cols, rng);
        auto y_ref = random_vec(rows * cols, rng);
        auto y_simd = y_ref;
        kern::scalar_ops().bias_act(y_ref.data(), bias.data(), rows, cols,
                                    relu);
        simd->bias_act(y_simd.data(), bias.data(), rows, cols, relu);
        for (std::size_t i = 0; i < y_ref.size(); ++i) {
          EXPECT_EQ(y_ref[i], y_simd[i])
              << "relu=" << relu << " cols=" << cols;
        }
        if (relu) {
          for (double v : y_simd) EXPECT_GE(v, 0.0);
        }
      }
    }
  }
}

TEST(KernelParity, RowMaxAndArgmaxBitExact) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(15);
    for (std::size_t n : {1u, 2u, 7u, 8u, 9u, 16u, 45u, 160u, 163u}) {
      const auto x = random_vec(n, rng);
      EXPECT_EQ(kern::scalar_ops().row_max(x.data(), n),
                simd->row_max(x.data(), n));
      const std::size_t ref = kern::scalar_ops().row_argmax(x.data(), n);
      EXPECT_EQ(ref, simd->row_argmax(x.data(), n));
      EXPECT_EQ(ref, argmax(std::span<const double>(x)));
    }
  }
}

TEST(KernelParity, ArgmaxFirstOnTies) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    for (std::size_t n : {6u, 12u, 40u}) {
      std::vector<double> x(n, -1.0);
      // Duplicate maxima in different SIMD lanes: both levels must report
      // the first occurrence, like std::max_element.
      x[2] = 3.5;
      x[n - 1] = 3.5;
      EXPECT_EQ(kern::scalar_ops().row_argmax(x.data(), n), 2u);
      EXPECT_EQ(simd->row_argmax(x.data(), n), 2u);
    }
  }
}

/// The learner's bootstrap and TD/Huber step after the forward passes,
/// written straight-line against ctj::argmax and the rl:: Huber helpers:
/// max over the target Q row, or the target Q at the online argmax for
/// Double DQN.
struct TdInputs {
  std::size_t batch = 0, num_actions = 0;
  std::vector<double> q_taken, next_q, next_q_online, rewards;
  std::vector<std::uint8_t> dones;
  double gamma = 0.9, reward_scale = 0.01, huber_delta = 1.0;
};

double td_huber_reference(const TdInputs& in, bool double_dqn,
                          std::vector<double>& g) {
  const std::size_t A = in.num_actions;
  g.assign(in.batch, 0.0);
  double loss = 0.0;
  for (std::size_t i = 0; i < in.batch; ++i) {
    const double* nq = in.next_q.data() + i * A;
    const double* select = double_dqn ? in.next_q_online.data() + i * A : nq;
    const double max_next = nq[argmax(std::span<const double>(select, A))];
    const double r = in.rewards[i] * in.reward_scale;
    const double target = in.dones[i] ? r : r + in.gamma * max_next;
    const double error = in.q_taken[i] - target;
    loss += rl::huber_loss(error, in.huber_delta);
    g[i] = rl::huber_grad(error, in.huber_delta) /
           static_cast<double>(in.batch);
  }
  return loss;
}

/// The learner's path at one kernel level: that level's row_max/row_argmax
/// make each row's bootstrap value, then the one TD/Huber kernel.
double td_huber_at_level(const KernelOps& ops, const TdInputs& in,
                         bool double_dqn, std::vector<double>& g) {
  const std::size_t A = in.num_actions;
  std::vector<double> next_v(in.batch);
  for (std::size_t i = 0; i < in.batch; ++i) {
    const double* nq = in.next_q.data() + i * A;
    next_v[i] = double_dqn
                    ? nq[ops.row_argmax(in.next_q_online.data() + i * A, A)]
                    : ops.row_max(nq, A);
  }
  TdHuberArgs args;
  args.q_taken = in.q_taken.data();
  args.next_v = next_v.data();
  args.rewards = in.rewards.data();
  args.dones = in.dones.data();
  args.gamma = in.gamma;
  args.reward_scale = in.reward_scale;
  args.grad_div = static_cast<double>(in.batch);
  args.huber_delta = in.huber_delta;
  args.batch = in.batch;
  g.assign(in.batch, 0.0);
  return kern::td_huber_batch(args, g.data());
}

class TdHuberTest : public ::testing::TestWithParam<bool> {};

TEST_P(TdHuberTest, MatchesReferenceAndAvx2BitExact) {
  const bool double_dqn = GetParam();
  Rng rng(16);
  TdInputs in;
  in.batch = 32;
  in.num_actions = 160;
  const std::size_t B = in.batch, A = in.num_actions;
  in.q_taken = random_vec(B, rng);
  // Spread Q values wide enough to exercise both Huber branches.
  in.next_q = random_vec(B * A, rng);
  for (double& v : in.next_q) v *= 40.0;
  in.next_q_online = random_vec(B * A, rng);
  in.rewards.resize(B);
  in.dones.resize(B);
  for (std::size_t i = 0; i < B; ++i) {
    in.rewards[i] = rng.uniform(-160.0, 0.0);
    in.dones[i] = rng.bernoulli(0.2) ? 1 : 0;
  }

  std::vector<double> g_ref;
  const double loss_ref = td_huber_reference(in, double_dqn, g_ref);

  std::vector<double> g_scalar;
  const double loss_scalar =
      td_huber_at_level(kern::scalar_ops(), in, double_dqn, g_scalar);
  EXPECT_EQ(loss_scalar, loss_ref);
  EXPECT_EQ(g_scalar, g_ref);

  // The SIMD levels only swap in the vector max/argmax, which are bit-exact
  // (the AVX-512 table inherits them from AVX2 outright); the whole step
  // must therefore agree to the last bit.
  for (const KernelOps* simd : simd_levels()) {
    SCOPED_TRACE(simd->name);
    std::vector<double> g_simd;
    const double loss_simd = td_huber_at_level(*simd, in, double_dqn, g_simd);
    EXPECT_EQ(loss_simd, loss_ref);
    EXPECT_EQ(g_simd, g_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(VanillaAndDouble, TdHuberTest, ::testing::Bool());

/// Straight-line Adam step (moment EMAs, bias correction by division,
/// sqrt-damped update) in the kernel's documented operation order.
void adam_reference(std::vector<double>& p, std::vector<double>& m,
                    std::vector<double>& v, const std::vector<double>& g,
                    double beta1, double beta2, double lr, double bc1,
                    double bc2, double eps) {
  for (std::size_t k = 0; k < p.size(); ++k) {
    m[k] = beta1 * m[k] + (1.0 - beta1) * g[k];
    v[k] = beta2 * v[k] + (1.0 - beta2) * g[k] * g[k];
    p[k] -= lr * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + eps);
  }
}

TEST(KernelParity, AdamUpdateBitExact) {
  // The active level's adam_update must equal the reference to the last
  // bit on every build and leave every gradient at +0.0 — also once a
  // bias correction has rounded to exactly 1.0 and the kernel stops
  // dividing by it (1−0.9ᵗ at t ≥ 356, 1−0.999ᵗ at t ≥ 37 412), while the
  // reference still divides, and on the last steps before that, where it
  // must still divide.
  const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
  const auto bc = [](double beta, double t) { return 1.0 - std::pow(beta, t); };
  ASSERT_EQ(bc(beta1, 356.0), 1.0);
  ASSERT_EQ(bc(beta2, 37412.0), 1.0);
  const struct { double bc1, bc2; } corrections[] = {
      {bc(beta1, 7.0), bc(beta2, 7.0)},
      {bc(beta1, 355.0), bc(beta2, 355.0)},
      {1.0, bc(beta2, 356.0)},
      {1.0, bc(beta2, 37411.0)},
      {1.0, 1.0}};
  ASSERT_LT(corrections[1].bc1, 1.0);
  ASSERT_LT(corrections[3].bc2, 1.0);
  Rng rng(17);
  for (const auto& c : corrections) {
    for (std::size_t n : {1u, 3u, 4u, 45u, 1080u, 7200u + 3u}) {
      auto p_ref = random_vec(n, rng);
      auto m_ref = random_vec(n, rng);
      auto v_ref = random_vec(n, rng);
      for (double& x : v_ref) x = std::abs(x);  // second moments are >= 0
      const auto g_ref = random_vec(n, rng);
      auto p = p_ref, m = m_ref, v = v_ref, g = g_ref;
      adam_reference(p_ref, m_ref, v_ref, g_ref, beta1, beta2, lr, c.bc1,
                     c.bc2, eps);
      kern::ops().adam_update(p.data(), m.data(), v.data(), g.data(), n,
                              beta1, beta2, lr, c.bc1, c.bc2, eps);
      EXPECT_EQ(p, p_ref) << "n=" << n << " bc1=" << c.bc1 << " bc2=" << c.bc2;
      EXPECT_EQ(m, m_ref) << "n=" << n << " bc1=" << c.bc1 << " bc2=" << c.bc2;
      EXPECT_EQ(v, v_ref) << "n=" << n << " bc1=" << c.bc1 << " bc2=" << c.bc2;
      // The update consumes the gradient: every entry is +0.0 afterwards.
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(g[k]), 0u)
            << "n=" << n << " entry " << k;
      }
    }
  }
}

/// One hostile moment for a bias correction bc: a value whose corrected
/// quotient x / bc makes the SIMD levels' reciprocal-and-Newton correction
/// divide, or is where it could go wrong. Never NaN (callers add NaNs).
double hostile_moment(double bc, Rng& rng) {
  const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
  const std::uint64_t bits = rng.engine()();
  // A power of two for the quotient, half the time near the subnormal range.
  const int k = rng.bernoulli(0.5) ? rng.uniform_int(-40, 40)
                                   : rng.uniform_int(-1022, -1000);
  switch (rng.index(8)) {
    case 0:  // the quotient is that power of two
      return sign * std::ldexp(bc, k);
    case 1:  // one ulp either side of that
      return sign * std::nextafter(std::ldexp(bc, k),
                                   rng.bernoulli(0.5) ? 0.0 : 1e300);
    case 2:  // signed zero
      return sign * 0.0;
    case 3:  // subnormal, the 5·2⁻¹⁰⁷⁴ of a stalled first moment included
      return sign * (rng.bernoulli(0.3)
                         ? 5 * std::numeric_limits<double>::denorm_min()
                         : std::bit_cast<double>(bits >> 12));
    case 4:  // ±inf, or a quotient that overflows
      return sign * (rng.bernoulli(0.5)
                         ? std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::max() *
                               rng.uniform(0.5, 1.0));
    case 5:  // an ordinary moment
      return rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 2.0));
    default:  // normal, with a quotient near the subnormal range
      return sign *
             std::ldexp(1.0 + rng.uniform(), rng.uniform_int(-1030, -960));
  }
}

double random_nan(Rng& rng) {
  const std::uint64_t bits = rng.engine()();
  const std::uint64_t quiet = rng.bernoulli(0.5) ? 0x0008000000000000ULL : 0;
  // A signalling NaN needs a nonzero payload below the quiet bit.
  return std::bit_cast<double>((bits & 0x8007ffffffffffffULL) | quiet |
                               0x7ff0000000000001ULL);
}

TEST(KernelParity, AdamUpdateEveryLevelBitExact) {
  // Every SIMD level's adam_update against the scalar table, compared by
  // bits so ±0.0 and NaN payloads count, on the lanes that make its
  // reciprocal-and-Newton bias correction divide or could make it wrong:
  // quotients that are exact powers of two or an ulp off one, subnormal
  // moments, moments whose quotient lies near the subnormal range (where
  // the Newton step is not correctly rounded by itself), ±0.0, ±inf,
  // overflowing quotients and NaN. Two kinds of call: ordinary Adam
  // hyperparameters over realistic moments, with 70 % zero gradients
  // spanning 1e−8..1 and some hostile moments; and a probe, β = lr = 1 and
  // ε = 0, for which the moment updates are m + 0·g and v + 0·g·g, so the
  // corrections see the hostile moments as they are, and each p = −0.0
  // becomes −m̂/√v̂ with one of m̂, v̂ a hostile quotient and the other
  // exactly 1, so an error in either shows in p, down to the sign of a
  // zero. (The corrected moments are not stored; only p shows them.)
  // Corrections 1−βᵗ at t = 1, 355 (the last 1−0.9ᵗ below 1),
  // 356, 37 411 and 37 412 (both 1.0); lengths 1..17 and the paper net's
  // 10 555 reach every tail of both levels. A lane holds at most one NaN:
  // which of two NaN payloads an add keeps depends on the operand order the
  // compiler picks, which no level promises.
  REQUIRE_SIMD(levels);
  if (kern::active_level() != SimdLevel::kScalar) {
    // What the learner calls is the active level's body, not the scalar one.
    EXPECT_NE(kern::ops().adam_update, kern::scalar_ops().adam_update);
  }
  const auto bc = [](double beta, double t) { return 1.0 - std::pow(beta, t); };
  ASSERT_LT(bc(0.9, 355.0), 1.0);
  ASSERT_EQ(bc(0.9, 356.0), 1.0);
  ASSERT_LT(bc(0.999, 37411.0), 1.0);
  ASSERT_EQ(bc(0.999, 37412.0), 1.0);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(10555);
  const auto expect_same_bits = [](const std::vector<double>& got,
                                   const std::vector<double>& want,
                                   const char* what) {
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want[k]))
          << what << "[" << k << "] of " << got.size() << ": " << got[k]
          << " vs " << want[k];
    }
  };
  for (const KernelOps* ops : levels) {
    SCOPED_TRACE(ops->name);
    Rng rng(29);
    for (const double t : {1.0, 355.0, 356.0, 37411.0, 37412.0}) {
      const double bc1 = bc(0.9, t), bc2 = bc(0.999, t);
      for (const bool probe : {false, true}) {
        const double beta1 = probe ? 1.0 : 0.9;
        const double beta2 = probe ? 1.0 : 0.999;
        const double lr = probe ? 1.0 : 1e-3;
        const double eps = probe ? 0.0 : 1e-8;
        for (const std::size_t n : lengths) {
          SCOPED_TRACE(testing::Message()
                       << "t=" << t << " n=" << n << (probe ? " probe" : ""));
          std::vector<double> p(n), m(n), v(n), g(n);
          for (std::size_t k = 0; k < n; ++k) {
            p[k] = probe ? -0.0 : rng.normal(0.0, 1.0);
            if (probe && rng.bernoulli(0.5)) {  // p becomes −m̂
              m[k] = hostile_moment(bc1, rng);
              v[k] = bc2;
            } else if (probe) {  // p becomes −1/√v̂
              m[k] = bc1;
              const double h = hostile_moment(bc2, rng);
              v[k] = h == 0.0 ? h : std::abs(h);
            } else if (rng.bernoulli(0.05)) {
              m[k] = hostile_moment(bc1, rng);
              v[k] = std::abs(hostile_moment(bc2, rng));
            } else {
              m[k] = rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform(-6, 0));
              v[k] = std::abs(rng.normal(0.0, 1.0)) *
                     std::pow(10.0, rng.uniform(-12, 0));
            }
            g[k] = rng.bernoulli(0.7) ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
                                      : rng.normal(0.0, 1.0) *
                                            std::pow(10.0, rng.uniform(-8, 0));
            switch (rng.index(20)) {  // one NaN at most, in one of the inputs
              case 0: p[k] = random_nan(rng); break;
              case 1: m[k] = random_nan(rng); break;
              case 2: v[k] = random_nan(rng); break;
              case 3: g[k] = random_nan(rng); break;
              case 4:
                g[k] = rng.bernoulli(0.5)
                           ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
                break;
              default: break;
            }
          }
          auto p_ref = p, m_ref = m, v_ref = v, g_ref = g;
          kern::scalar_ops().adam_update(p_ref.data(), m_ref.data(),
                                         v_ref.data(), g_ref.data(), n, beta1,
                                         beta2, lr, bc1, bc2, eps);
          ops->adam_update(p.data(), m.data(), v.data(), g.data(), n, beta1,
                           beta2, lr, bc1, bc2, eps);
          expect_same_bits(m, m_ref, "m");
          expect_same_bits(v, v_ref, "v");
          expect_same_bits(p, p_ref, "p");
          expect_same_bits(g, g_ref, "g");
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ctj
