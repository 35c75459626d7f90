// PHY hot-path regression battery (ctest label: phy).
//
// The kernel-layer rewrite of the Viterbi decoder and the Eq. (1)/(2)
// quantization path promises *bit-identical* outputs to the straight-line
// implementations it replaced. The references below are verbatim
// transcriptions of the pre-kernel decoder and quantization loop; this TU is
// compiled with -ffp-contract=off (see tests/CMakeLists.txt) so the
// references' arithmetic cannot be fused differently from the scalar
// kernel's plain operations.
//
// Coverage:
//  - hard/soft decode vs transcribed reference, all three code rates,
//    including erasure inputs;
//  - encode → decode roundtrip (tail-terminated) at all rates;
//  - decode_batch == per-symbol decode;
//  - viterbi_acs_hard/soft cross-level bit-identity (scalar vs AVX2 vs
//    AVX-512, whichever the host supports), including unreachable-metric
//    patterns;
//  - qam64_error: scalar kernel bit-exact vs the transcribed loop, SIMD
//    levels within tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "phy/convolutional.hpp"
#include "phy/emulation.hpp"
#include "phy/qam.hpp"

namespace {

using namespace ctj;
using phy::Bits;
using phy::CodeRate;
using phy::ConvolutionalCode;

// ------------------------------------------------------------------ refs --
// Transcribed pre-kernel implementations (git history: the versions this PR
// replaced). Do not "fix" or modernize these — their exact arithmetic is the
// bit-identity contract.

int ref_parity(unsigned v) { return __builtin_popcount(v) & 1; }

std::vector<bool> ref_keep_mask(CodeRate rate) {
  switch (rate) {
    case CodeRate::kRate1of2: return {true, true};
    case CodeRate::kRate2of3: return {true, true, true, false};
    case CodeRate::kRate3of4: return {true, true, true, false, false, true};
  }
  return {};
}

Bits ref_depuncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  const auto mask = ref_keep_mask(rate);
  const std::size_t kept_per_period = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  EXPECT_EQ(coded.size() % kept_per_period, 0u);
  const std::size_t periods = coded.size() / kept_per_period;
  Bits mother(periods * mask.size(), 2);  // 2 marks an erasure
  std::size_t src = 0;
  for (std::size_t i = 0; i < mother.size(); ++i) {
    if (mask[i % mask.size()]) mother[i] = coded[src++];
  }
  return mother;
}

Bits ref_decode_hard(std::span<const std::uint8_t> coded, CodeRate rate) {
  Bits mother;
  if (rate == CodeRate::kRate1of2) {
    mother.assign(coded.begin(), coded.end());
  } else {
    mother = ref_depuncture(coded, rate);
  }
  const std::size_t steps = mother.size() / 2;
  constexpr std::size_t kStates = ConvolutionalCode::kStates;

  constexpr auto kInf = std::numeric_limits<int>::max() / 4;
  std::vector<int> metric(kStates, kInf);
  metric[0] = 0;
  std::vector<std::vector<std::uint16_t>> survivor(
      steps, std::vector<std::uint16_t>(kStates, 0));

  std::array<std::array<std::uint8_t, 2>, kStates * 2> expected{};
  for (unsigned s = 0; s < kStates; ++s) {
    for (unsigned in = 0; in < 2; ++in) {
      const unsigned reg = (in << 6) | s;
      expected[s * 2 + in] = {
          static_cast<std::uint8_t>(ref_parity(reg & ConvolutionalCode::kG0)),
          static_cast<std::uint8_t>(ref_parity(reg & ConvolutionalCode::kG1))};
    }
  }

  std::vector<int> next_metric(kStates);
  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    const std::uint8_t r0 = mother[2 * t];
    const std::uint8_t r1 = mother[2 * t + 1];
    for (unsigned s = 0; s < kStates; ++s) {
      if (metric[s] >= kInf) continue;
      for (unsigned in = 0; in < 2; ++in) {
        const auto& exp = expected[s * 2 + in];
        int cost = 0;
        if (r0 <= 1) cost += (exp[0] != r0);
        if (r1 <= 1) cost += (exp[1] != r1);
        const unsigned ns = (((in << 6) | s) >> 1);
        const int m = metric[s] + cost;
        if (m < next_metric[ns]) {
          next_metric[ns] = m;
          survivor[t][ns] = static_cast<std::uint16_t>((s << 1) | in);
        }
      }
    }
    metric.swap(next_metric);
  }

  unsigned state = static_cast<unsigned>(
      std::min_element(metric.begin(), metric.end()) - metric.begin());
  Bits info(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint16_t sv = survivor[t][state];
    info[t] = static_cast<std::uint8_t>(sv & 1U);
    state = sv >> 1;
  }
  return info;
}

Bits ref_decode_soft(std::span<const double> llrs) {
  const std::size_t steps = llrs.size() / 2;
  constexpr std::size_t kStates = ConvolutionalCode::kStates;

  constexpr double kInf = 1e300;
  std::vector<double> metric(kStates, kInf);
  metric[0] = 0.0;
  std::vector<std::vector<std::uint16_t>> survivor(
      steps, std::vector<std::uint16_t>(kStates, 0));

  std::array<std::array<std::uint8_t, 2>, kStates * 2> expected{};
  for (unsigned s = 0; s < kStates; ++s) {
    for (unsigned in = 0; in < 2; ++in) {
      const unsigned reg = (in << 6) | s;
      expected[s * 2 + in] = {
          static_cast<std::uint8_t>(ref_parity(reg & ConvolutionalCode::kG0)),
          static_cast<std::uint8_t>(ref_parity(reg & ConvolutionalCode::kG1))};
    }
  }

  std::vector<double> next_metric(kStates);
  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    const double l0 = llrs[2 * t];
    const double l1 = llrs[2 * t + 1];
    for (unsigned s = 0; s < kStates; ++s) {
      if (metric[s] >= kInf) continue;
      for (unsigned in = 0; in < 2; ++in) {
        const auto& exp = expected[s * 2 + in];
        double cost = 0.0;
        cost += exp[0] ? std::max(0.0, -l0) : std::max(0.0, l0);
        cost += exp[1] ? std::max(0.0, -l1) : std::max(0.0, l1);
        const unsigned ns = (((in << 6) | s) >> 1);
        const double m = metric[s] + cost;
        if (m < next_metric[ns]) {
          next_metric[ns] = m;
          survivor[t][ns] = static_cast<std::uint16_t>((s << 1) | in);
        }
      }
    }
    metric.swap(next_metric);
  }

  unsigned state = static_cast<unsigned>(
      std::min_element(metric.begin(), metric.end()) - metric.begin());
  Bits info(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint16_t sv = survivor[t][state];
    info[t] = static_cast<std::uint8_t>(sv & 1U);
    state = sv >> 1;
  }
  return info;
}

double ref_quantization_error(std::span<const phy::Cplx> targets,
                              double alpha) {
  double err = 0.0;
  for (const phy::Cplx& t : targets) {
    err += std::norm(phy::Qam64::quantize(t, alpha) - t);
  }
  return err;
}

std::size_t info_len_for(CodeRate rate, std::size_t periods) {
  switch (rate) {
    case CodeRate::kRate1of2: return periods;
    case CodeRate::kRate2of3: return 2 * periods;
    case CodeRate::kRate3of4: return 3 * periods;
  }
  return 0;
}

const std::array<CodeRate, 3> kAllRates = {
    CodeRate::kRate1of2, CodeRate::kRate2of3, CodeRate::kRate3of4};

// Available dispatch levels beyond scalar on this host.
std::vector<std::pair<const char*, const kern::KernelOps*>> simd_levels() {
  std::vector<std::pair<const char*, const kern::KernelOps*>> levels;
  if (kern::avx2_ops() != nullptr && kern::cpu_supports_avx2()) {
    levels.emplace_back("avx2", kern::avx2_ops());
  }
  if (kern::avx512_ops() != nullptr && kern::cpu_supports_avx512()) {
    levels.emplace_back("avx512", kern::avx512_ops());
  }
  return levels;
}

// ------------------------------------------------------------ decoder ----

TEST(PhyHotpath, HardDecodeBitIdenticalToReference) {
  Rng rng(101);
  for (CodeRate rate : kAllRates) {
    for (std::size_t trial = 0; trial < 20; ++trial) {
      const std::size_t info_len = info_len_for(rate, 8 + rng.index(40));
      const Bits info = phy::random_bits(info_len, rng);
      Bits coded = ConvolutionalCode::encode(info, rate);
      // Channel noise: flip ~10% of coded bits.
      for (auto& b : coded) {
        if (rng.uniform() < 0.1) b ^= 1;
      }
      const Bits expected = ref_decode_hard(coded, rate);
      const Bits actual = ConvolutionalCode::decode(coded, rate);
      ASSERT_EQ(actual, expected)
          << "rate " << static_cast<int>(rate) << " trial " << trial;
    }
  }
}

TEST(PhyHotpath, HardDecodeHandlesExplicitErasures) {
  // The decoder's contract for mother-grid inputs: any value > 1 is an
  // erasure (zero branch cost), exactly as the reference treated it.
  Rng rng(102);
  for (std::size_t trial = 0; trial < 10; ++trial) {
    Bits coded(2 * (16 + rng.index(32)));
    for (auto& b : coded) {
      const double u = rng.uniform();
      b = u < 0.4 ? 0 : (u < 0.8 ? 1 : 2);
    }
    const Bits expected = ref_decode_hard(coded, CodeRate::kRate1of2);
    const Bits actual = ConvolutionalCode::decode(coded, CodeRate::kRate1of2);
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(PhyHotpath, SoftDecodeBitIdenticalToReference) {
  Rng rng(103);
  for (std::size_t trial = 0; trial < 20; ++trial) {
    std::vector<double> llrs(2 * (16 + rng.index(48)));
    for (auto& l : llrs) l = 4.0 * rng.normal();
    const Bits expected = ref_decode_soft(llrs);
    const Bits actual = ConvolutionalCode::decode_soft(llrs);
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(PhyHotpath, SoftDecodePuncturedMatchesReferenceOnMotherGrid) {
  // Punctured soft decode = expand the kept LLRs onto the mother grid with
  // LLR 0 at erased positions, then run the rate-1/2 trellis.
  Rng rng(104);
  for (CodeRate rate : {CodeRate::kRate2of3, CodeRate::kRate3of4}) {
    const auto mask = ref_keep_mask(rate);
    for (std::size_t trial = 0; trial < 10; ++trial) {
      const std::size_t periods = 6 + rng.index(20);
      const std::size_t kept = static_cast<std::size_t>(
          std::count(mask.begin(), mask.end(), true));
      std::vector<double> llrs(periods * kept);
      for (auto& l : llrs) l = 4.0 * rng.normal();

      std::vector<double> mother(periods * mask.size(), 0.0);
      std::size_t src = 0;
      for (std::size_t i = 0; i < mother.size(); ++i) {
        if (mask[i % mask.size()]) mother[i] = llrs[src++];
      }
      const Bits expected = ref_decode_soft(mother);
      const Bits actual = ConvolutionalCode::decode_soft(llrs, rate);
      ASSERT_EQ(actual, expected)
          << "rate " << static_cast<int>(rate) << " trial " << trial;
    }
  }
}

TEST(PhyHotpath, EncodeDecodeRoundtripAllRates) {
  Rng rng(105);
  for (CodeRate rate : kAllRates) {
    for (std::size_t trial = 0; trial < 10; ++trial) {
      // Tail-terminated: 6 zeros drive the encoder back to state 0, making
      // the clean-channel decode exact.
      std::size_t info_len = info_len_for(rate, 10 + rng.index(30));
      Bits info = phy::random_bits(info_len, rng);
      for (std::size_t i = 0; i < 6 && i < info.size(); ++i) {
        info[info.size() - 1 - i] = 0;
      }
      const Bits coded = ConvolutionalCode::encode(info, rate);
      EXPECT_EQ(coded.size(), phy::coded_length(info.size(), rate));
      const Bits decoded = ConvolutionalCode::decode(coded, rate);
      ASSERT_EQ(decoded, info)
          << "rate " << static_cast<int>(rate) << " trial " << trial;
    }
  }
}

TEST(PhyHotpath, DecodeBatchMatchesPerSymbolDecode) {
  Rng rng(106);
  for (CodeRate rate : kAllRates) {
    const std::size_t symbols = 7;
    const std::size_t info_len = info_len_for(rate, 24);
    Bits coded_all;
    std::vector<Bits> per_symbol;
    for (std::size_t s = 0; s < symbols; ++s) {
      const Bits info = phy::random_bits(info_len, rng);
      Bits coded = ConvolutionalCode::encode(info, rate);
      for (auto& b : coded) {
        if (rng.uniform() < 0.05) b ^= 1;
      }
      per_symbol.push_back(ConvolutionalCode::decode(coded, rate));
      coded_all.insert(coded_all.end(), coded.begin(), coded.end());
    }
    const Bits batched =
        ConvolutionalCode::decode_batch(coded_all, symbols, rate);
    Bits expected;
    for (const Bits& b : per_symbol) {
      expected.insert(expected.end(), b.begin(), b.end());
    }
    ASSERT_EQ(batched, expected) << "rate " << static_cast<int>(rate);
  }
}

// ------------------------------------------------------ ACS kernels ------

TEST(PhyHotpath, ViterbiAcsHardCrossLevelBitIdentity) {
  const kern::KernelOps& scalar = kern::scalar_ops();
  Rng rng(107);
  constexpr auto kInf = std::numeric_limits<std::int32_t>::max() / 4;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    alignas(64) std::int32_t metric[64];
    alignas(64) std::int32_t cost0[64];
    alignas(64) std::int32_t cost1[64];
    for (auto& m : metric) {
      // Mix reachable metrics with unreachable kInf sentinels, as the first
      // trellis steps do (only state 0 is reachable at t = 0).
      m = rng.uniform() < 0.25 ? kInf
                               : static_cast<std::int32_t>(rng.index(1000));
    }
    for (auto& c : cost0) c = static_cast<std::int32_t>(rng.index(3));
    for (auto& c : cost1) c = static_cast<std::int32_t>(rng.index(3));

    alignas(64) std::int32_t next_scalar[64];
    std::uint64_t chosen_scalar = 0;
    scalar.viterbi_acs_hard(metric, cost0, cost1, next_scalar,
                            &chosen_scalar);

    for (const auto& [name, ops] : simd_levels()) {
      alignas(64) std::int32_t next_simd[64];
      std::uint64_t chosen_simd = 0;
      ops->viterbi_acs_hard(metric, cost0, cost1, next_simd, &chosen_simd);
      for (int s = 0; s < 64; ++s) {
        ASSERT_EQ(next_simd[s], next_scalar[s])
            << name << " trial " << trial << " state " << s;
      }
      ASSERT_EQ(chosen_simd, chosen_scalar) << name << " trial " << trial;
    }
  }
}

TEST(PhyHotpath, ViterbiAcsSoftCrossLevelBitIdentity) {
  const kern::KernelOps& scalar = kern::scalar_ops();
  Rng rng(108);
  constexpr double kInf = 1e300;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    alignas(64) double metric[64];
    alignas(64) double cost0[64];
    alignas(64) double cost1[64];
    for (auto& m : metric) {
      m = rng.uniform() < 0.25 ? kInf : std::abs(rng.normal()) * 10.0;
    }
    for (auto& c : cost0) c = std::abs(rng.normal());
    for (auto& c : cost1) c = std::abs(rng.normal());

    alignas(64) double next_scalar[64];
    std::uint64_t chosen_scalar = 0;
    scalar.viterbi_acs_soft(metric, cost0, cost1, next_scalar,
                            &chosen_scalar);

    for (const auto& [name, ops] : simd_levels()) {
      alignas(64) double next_simd[64];
      std::uint64_t chosen_simd = 0;
      ops->viterbi_acs_soft(metric, cost0, cost1, next_simd, &chosen_simd);
      for (int s = 0; s < 64; ++s) {
        // Bit-identical, not approximately equal: the soft ACS is pure
        // add/compare, so every level must produce the same doubles.
        ASSERT_EQ(next_simd[s], next_scalar[s])
            << name << " trial " << trial << " state " << s;
      }
      ASSERT_EQ(chosen_simd, chosen_scalar) << name << " trial " << trial;
    }
  }
}

// -------------------------------------------------------- Eq. (1)/(2) ----

TEST(PhyHotpath, Qam64ErrorScalarKernelBitExact) {
  Rng rng(109);
  const kern::KernelOps& scalar = kern::scalar_ops();
  for (std::size_t trial = 0; trial < 20; ++trial) {
    phy::IqBuffer targets(1 + rng.index(100));
    for (auto& t : targets) t = phy::Cplx(rng.normal(), rng.normal());
    const double alpha = 0.1 + 3.0 * rng.uniform();
    const double expected = ref_quantization_error(targets, alpha);
    const double actual = scalar.qam64_error(
        reinterpret_cast<const double*>(targets.data()), targets.size(),
        alpha, phy::Qam64::normalization());
    ASSERT_EQ(actual, expected) << "trial " << trial << " alpha " << alpha;
  }
}

TEST(PhyHotpath, Qam64ErrorSimdWithinTolerance) {
  // SIMD levels reassociate the accumulation (and snap to the grid with
  // floor(x+0.5) instead of round), so they carry a tolerance bound like the
  // matmul kernels — not a bit-identity claim.
  Rng rng(110);
  const kern::KernelOps& scalar = kern::scalar_ops();
  for (std::size_t trial = 0; trial < 20; ++trial) {
    phy::IqBuffer targets(1 + rng.index(200));
    for (auto& t : targets) t = phy::Cplx(rng.normal(), rng.normal());
    const double alpha = 0.1 + 3.0 * rng.uniform();
    const double expected = scalar.qam64_error(
        reinterpret_cast<const double*>(targets.data()), targets.size(),
        alpha, phy::Qam64::normalization());
    for (const auto& [name, ops] : simd_levels()) {
      const double actual = ops->qam64_error(
          reinterpret_cast<const double*>(targets.data()), targets.size(),
          alpha, phy::Qam64::normalization());
      ASSERT_NEAR(actual, expected, 1e-9 * (1.0 + expected))
          << name << " trial " << trial;
    }
  }
}

TEST(PhyHotpath, QuantizationErrorMatchesReference) {
  // The dispatched public entry point agrees with the transcribed loop to
  // within the SIMD tolerance at whatever level CTJ_SIMD resolved.
  Rng rng(111);
  phy::IqBuffer targets(137);
  for (auto& t : targets) t = phy::Cplx(rng.normal(), rng.normal());
  for (double alpha : {0.3, 0.9, 1.3, 2.4}) {
    const double expected = ref_quantization_error(targets, alpha);
    const double actual = phy::quantization_error(targets, alpha);
    EXPECT_NEAR(actual, expected, 1e-9 * (1.0 + expected)) << alpha;
  }
}

}  // namespace
