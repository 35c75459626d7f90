// Tests for the Wi-Fi DSP substrate: FFT, bit utilities, scrambler,
// convolutional code (hard and soft Viterbi), interleaver, 64-QAM and OFDM.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "phy/bits.hpp"
#include "phy/convolutional.hpp"
#include "phy/fft.hpp"
#include "phy/interleaver.hpp"
#include "phy/iq.hpp"
#include "phy/ofdm.hpp"
#include "phy/qam.hpp"
#include "phy/scrambler.hpp"

namespace ctj::phy {
namespace {

// ---------------------------------------------------------------- FFT ----

TEST(Fft, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  IqBuffer x(8, Cplx(0, 0));
  x[0] = Cplx(1, 0);
  const IqBuffer X = fft(x);
  for (const Cplx& v : X) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  IqBuffer x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(k * i) /
                         static_cast<double>(n);
    x[i] = Cplx(std::cos(phase), std::sin(phase));
  }
  const IqBuffer X = fft(x);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == k) {
      EXPECT_NEAR(std::abs(X[i]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(X[i]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(1);
  IqBuffer x(128);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  const IqBuffer y = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(2);
  IqBuffer x(64);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  const IqBuffer X = fft(x);
  EXPECT_NEAR(energy(X) / 64.0, energy(x), 1e-9);
}

TEST(Fft, Linearity) {
  Rng rng(3);
  IqBuffer a(32), b(32), sum(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = Cplx(rng.normal(), rng.normal());
    b[i] = Cplx(rng.normal(), rng.normal());
    sum[i] = a[i] + 2.0 * b[i];
  }
  const IqBuffer A = fft(a), B = fft(b), S = fft(sum);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(S[i] - (A[i] + 2.0 * B[i])), 0.0, 1e-9);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  IqBuffer x(48, Cplx(1, 0));
  EXPECT_THROW(fft_inplace(x), CheckFailure);
}

TEST(FftPlan, RoundTripIdentity) {
  for (std::size_t n : {std::size_t{64}, std::size_t{128}}) {
    const FftPlan& plan = FftPlan::for_size(n);
    EXPECT_EQ(plan.size(), n);
    Rng rng(11);
    IqBuffer x(n);
    for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
    IqBuffer y = x;
    plan.forward(y);
    plan.inverse(y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
    }
  }
}

TEST(FftPlan, MatchesDirectDft) {
  // Cross-check the cached-plan transform against the O(n²) definition.
  const std::size_t n = 64;
  Rng rng(12);
  IqBuffer x(n);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  IqBuffer fast = x;
  FftPlan::for_size(n).forward(fast);
  for (std::size_t k = 0; k < n; ++k) {
    Cplx ref(0, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double phase = -2.0 * std::numbers::pi *
                           static_cast<double>(k * i) / static_cast<double>(n);
      ref += x[i] * Cplx(std::cos(phase), std::sin(phase));
    }
    EXPECT_NEAR(std::abs(fast[k] - ref), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(FftPlan, CacheReturnsSameInstance) {
  const FftPlan& a = FftPlan::for_size(64);
  const FftPlan& b = FftPlan::for_size(64);
  EXPECT_EQ(&a, &b);
  const FftPlan& c = FftPlan::for_size(128);
  EXPECT_NE(&a, &c);
}

// --------------------------------------------------------------- bits ----

TEST(Bits, BytesBitsRoundTrip) {
  Rng rng(4);
  std::vector<std::uint8_t> bytes(57);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(Bits, LsbFirstConvention) {
  const std::vector<std::uint8_t> bytes = {0x01};
  const Bits bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 8u);
  EXPECT_EQ(bits[0], 1);  // LSB first
  for (std::size_t i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bits, HammingDistance) {
  const Bits a = {0, 1, 1, 0};
  const Bits b = {1, 1, 0, 0};
  EXPECT_EQ(hamming_distance(a, b), 2u);
  EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(Bits, Crc16KnownVector) {
  // "123456789" under CRC-16/XMODEM (poly 0x1021, init 0) → 0x31C3.
  const std::string s = "123456789";
  const std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc16_itu(bytes), 0x31C3);
}

TEST(Bits, CrcDetectsSingleBitFlip) {
  Rng rng(5);
  std::vector<std::uint8_t> bytes(32);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::uint16_t crc = crc16_itu(bytes);
  bytes[10] ^= 0x04;
  EXPECT_NE(crc16_itu(bytes), crc);
}

// ---------------------------------------------------------- scrambler ----

TEST(Scrambler, SelfInverse) {
  Rng rng(6);
  const Bits data = random_bits(300, rng);
  Scrambler a(0x5D), b(0x5D);
  EXPECT_EQ(b.process(a.process(data)), data);
}

TEST(Scrambler, KeystreamPeriod127) {
  Scrambler s(0x7F);
  std::vector<std::uint8_t> first(127);
  for (auto& b : first) b = s.next_keystream_bit();
  for (int i = 0; i < 127; ++i) {
    EXPECT_EQ(s.next_keystream_bit(), first[static_cast<std::size_t>(i)]);
  }
}

TEST(Scrambler, KnownPrefixForAllOnesSeed) {
  // 802.11 reference: seed 1111111 produces 00001110 1111001... We check the
  // documented first 8 bits 0,0,0,0,1,1,1,0.
  Scrambler s(0x7F);
  const std::uint8_t expected[8] = {0, 0, 0, 0, 1, 1, 1, 0};
  for (std::uint8_t e : expected) EXPECT_EQ(s.next_keystream_bit(), e);
}

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0x00), CheckFailure);
}

TEST(Scrambler, BalancedKeystream) {
  Scrambler s(0x2A);
  int ones = 0;
  for (int i = 0; i < 127; ++i) ones += s.next_keystream_bit();
  EXPECT_EQ(ones, 64);  // maximal-length LFSR property
}

// ------------------------------------------------------- convolutional ----

TEST(Convolutional, CodedLength) {
  EXPECT_EQ(coded_length(100, CodeRate::kRate1of2), 200u);
  EXPECT_EQ(coded_length(100, CodeRate::kRate2of3), 150u);
  EXPECT_EQ(coded_length(99, CodeRate::kRate3of4), 132u);
}

TEST(Convolutional, KnownEncoding) {
  // All-zero input stays all-zero (linear code).
  const Bits zeros(16, 0);
  const Bits coded = ConvolutionalCode::encode(zeros);
  for (std::uint8_t b : coded) EXPECT_EQ(b, 0);
  // A single 1 produces the generator impulse response 133/171 (octal).
  Bits impulse(8, 0);
  impulse[0] = 1;
  const Bits out = ConvolutionalCode::encode(impulse);
  // g0 = 1011011, g1 = 1111001 (MSB = current input bit).
  const Bits expected = {1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0};
  EXPECT_EQ(out, expected);
}

TEST(Convolutional, CleanRoundTripRate12) {
  Rng rng(7);
  const Bits info = random_bits(240, rng);
  const Bits coded = ConvolutionalCode::encode(info);
  EXPECT_EQ(ConvolutionalCode::decode(coded), info);
}

TEST(Convolutional, CleanRoundTripPuncturedRates) {
  Rng rng(8);
  for (CodeRate rate : {CodeRate::kRate2of3, CodeRate::kRate3of4}) {
    const Bits info = random_bits(144, rng);
    const Bits coded = ConvolutionalCode::encode(info, rate);
    EXPECT_EQ(coded.size(), coded_length(info.size(), rate));
    EXPECT_EQ(ConvolutionalCode::decode(coded, rate), info);
  }
}

TEST(Convolutional, CorrectsScatteredErrors) {
  Rng rng(9);
  const Bits info = random_bits(200, rng);
  Bits coded = ConvolutionalCode::encode(info);
  // Flip well-separated bits — within the free distance budget.
  for (std::size_t pos : {10u, 90u, 170u, 250u, 330u}) {
    coded[pos] ^= 1;
  }
  EXPECT_EQ(ConvolutionalCode::decode(coded), info);
}

class ConvolutionalNoise : public ::testing::TestWithParam<double> {};

TEST_P(ConvolutionalNoise, LowBerIsCorrected) {
  const double ber = GetParam();
  Rng rng(10 + static_cast<std::uint64_t>(ber * 1e4));
  std::size_t bit_errors = 0, total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Bits info = random_bits(144, rng);
    Bits coded = ConvolutionalCode::encode(info);
    for (auto& b : coded) {
      if (rng.bernoulli(ber)) b ^= 1;
    }
    const Bits decoded = ConvolutionalCode::decode(coded);
    bit_errors += hamming_distance(decoded, info);
    total += info.size();
  }
  // K=7 rate-1/2 code corrects a couple percent channel BER comfortably.
  EXPECT_LT(static_cast<double>(bit_errors) / static_cast<double>(total),
            ber / 2.0 + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(BerSweep, ConvolutionalNoise,
                         ::testing::Values(0.005, 0.01, 0.02));

// --------------------------------------------------------- interleaver ----

TEST(Interleaver, RoundTrip288) {
  Interleaver il(288, 6);
  Rng rng(11);
  const Bits in = random_bits(288, rng);
  EXPECT_EQ(il.deinterleave(il.interleave(in)), in);
}

TEST(Interleaver, IsNontrivialPermutation) {
  Interleaver il(288, 6);
  Bits in(288, 0);
  in[0] = 1;
  in[1] = 1;
  const Bits out = il.interleave(in);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) positions.push_back(i);
  }
  ASSERT_EQ(positions.size(), 2u);
  // Adjacent coded bits must land far apart.
  EXPECT_GT(positions[1] - positions[0], 5u);
}

TEST(Interleaver, SpreadsAdjacentBitsAcrossSubcarriers) {
  Interleaver il(288, 6);
  // Positions of consecutive input bits, mapped to subcarrier index (j/6).
  Bits probe(288, 0);
  std::vector<std::size_t> subcarrier(4);
  for (std::size_t k = 0; k < 4; ++k) {
    std::fill(probe.begin(), probe.end(), 0);
    probe[k] = 1;
    const Bits out = il.interleave(probe);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i]) subcarrier[k] = i / 6;
    }
  }
  // All four consecutive bits land on distinct subcarriers.
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      EXPECT_NE(subcarrier[a], subcarrier[b]);
    }
  }
}

TEST(Interleaver, RejectsWrongLength) {
  Interleaver il(288, 6);
  const Bits bad(100, 0);
  EXPECT_THROW(il.interleave(bad), CheckFailure);
}

// ----------------------------------------------------------------- QAM ----

TEST(Qam64, UnitAveragePower) {
  double power = 0.0;
  for (std::size_t i = 0; i < Qam64::kPoints; ++i) {
    power += std::norm(Qam64::point(i));
  }
  EXPECT_NEAR(power / 64.0, 1.0, 1e-12);
}

TEST(Qam64, MapDemapRoundTripAllSymbols) {
  for (unsigned v = 0; v < 64; ++v) {
    Bits bits(6);
    for (int i = 0; i < 6; ++i) bits[static_cast<std::size_t>(i)] = (v >> (5 - i)) & 1;
    const Cplx p = Qam64::map(bits);
    EXPECT_EQ(Qam64::demap(p), bits);
  }
}

TEST(Qam64, GrayNeighborsDifferInOneBit) {
  // Horizontally adjacent constellation points must differ in exactly one of
  // the three I-axis bits.
  for (int hi = 0; hi < 7; ++hi) {
    Cplx a(0, 0), b(0, 0);
    // Find points with I level (2*hi-7) and (2*hi-5), same Q.
    const double scale = 1.0 / std::sqrt(42.0);
    a = Cplx((2.0 * hi - 7.0) * scale, 7.0 * scale);
    b = Cplx((2.0 * hi - 5.0) * scale, 7.0 * scale);
    EXPECT_EQ(hamming_distance(Qam64::demap(a), Qam64::demap(b)), 1u);
  }
}

TEST(Qam64, DemapIsNearestNeighbor) {
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const Cplx target(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6));
    const Cplx quantized = Qam64::quantize(target);
    // Exhaustive check: no constellation point is closer.
    for (std::size_t i = 0; i < Qam64::kPoints; ++i) {
      EXPECT_LE(std::norm(quantized - target),
                std::norm(Qam64::point(i) - target) + 1e-12);
    }
  }
}

TEST(Qam64, QuantizeScalesWithAlpha) {
  const Cplx target(3.0, -2.0);
  const double alpha = 2.5;
  const Cplx q = Qam64::quantize(target, alpha);
  // The result lies on the α-scaled grid.
  const std::size_t idx = Qam64::nearest_index(target, alpha);
  EXPECT_NEAR(std::abs(q - Qam64::point(idx) * alpha), 0.0, 1e-12);
}

TEST(Qam64, MapAllLength) {
  Rng rng(13);
  const Bits bits = random_bits(288, rng);
  EXPECT_EQ(Qam64::map_all(bits).size(), 48u);
}

// ---------------------------------------------------------------- OFDM ----

TEST(Ofdm, DataSubcarrierLayout) {
  const auto& dsc = Ofdm::data_subcarriers();
  EXPECT_EQ(dsc.size(), 48u);
  for (int k : dsc) {
    EXPECT_NE(k, 0);
    EXPECT_NE(std::abs(k), 7);
    EXPECT_NE(std::abs(k), 21);
    EXPECT_LE(std::abs(k), 26);
  }
}

TEST(Ofdm, BinMapping) {
  EXPECT_EQ(Ofdm::bin_of(0), 0u);
  EXPECT_EQ(Ofdm::bin_of(1), 1u);
  EXPECT_EQ(Ofdm::bin_of(-1), 63u);
  EXPECT_EQ(Ofdm::bin_of(-26), 38u);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  Rng rng(14);
  IqBuffer data(48);
  for (Cplx& v : data) v = Cplx(rng.normal(), rng.normal());
  const IqBuffer symbol = Ofdm::modulate_symbol(data);
  EXPECT_EQ(symbol.size(), Ofdm::kSymbolLength);
  const IqBuffer recovered = Ofdm::demodulate_symbol(symbol);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_NEAR(std::abs(recovered[i] - data[i]), 0.0, 1e-9);
  }
}

TEST(Ofdm, CyclicPrefixIsCopyOfTail) {
  Rng rng(15);
  IqBuffer data(48);
  for (Cplx& v : data) v = Cplx(rng.normal(), rng.normal());
  const IqBuffer symbol = Ofdm::modulate_symbol(data);
  for (std::size_t i = 0; i < Ofdm::kCpLength; ++i) {
    EXPECT_NEAR(std::abs(symbol[i] - symbol[Ofdm::kFftSize + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, PilotsCarryPilotValue) {
  IqBuffer data(48, Cplx(0, 0));
  const IqBuffer symbol = Ofdm::modulate_symbol(data, Cplx(1, 0));
  const IqBuffer spectrum = Ofdm::symbol_spectrum(symbol);
  for (int p : Ofdm::pilot_subcarriers()) {
    EXPECT_NEAR(std::abs(spectrum[Ofdm::bin_of(p)] - Cplx(1, 0)), 0.0, 1e-9);
  }
}

// --------------------------------------------------------------- misc ----

TEST(Iq, EvmZeroForIdenticalBuffers) {
  Rng rng(16);
  IqBuffer x(32);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  EXPECT_NEAR(evm(x, x), 0.0, 1e-12);
}

TEST(Iq, NormalizePowerSetsTarget) {
  Rng rng(17);
  IqBuffer x(64);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  normalize_power(x, 2.0);
  EXPECT_NEAR(average_power(x), 2.0, 1e-12);
}

TEST(Iq, FrequencyShiftPreservesPower) {
  Rng rng(18);
  IqBuffer x(128);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  const double p0 = average_power(x);
  frequency_shift(x, 3e6, 20e6);
  EXPECT_NEAR(average_power(x), p0, 1e-9);
}

TEST(Iq, FrequencyShiftRoundTrip) {
  Rng rng(19);
  IqBuffer x(64);
  for (Cplx& v : x) v = Cplx(rng.normal(), rng.normal());
  IqBuffer y = x;
  frequency_shift(y, 5e6, 20e6);
  frequency_shift(y, -5e6, 20e6);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
  }
}

// -------------------------------------------------------- soft Viterbi ----

phy::Bits encode(const phy::Bits& info) {
  return phy::ConvolutionalCode::encode(info);
}

std::vector<double> to_llrs(const phy::Bits& coded, double confidence) {
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? confidence : -confidence;
  }
  return llrs;
}

TEST(SoftViterbi, CleanRoundTrip) {
  Rng rng(1);
  const phy::Bits info = phy::random_bits(200, rng);
  const auto llrs = to_llrs(encode(info), 2.0);
  EXPECT_EQ(phy::ConvolutionalCode::decode_soft(llrs), info);
}

TEST(SoftViterbi, ErasuresAreNeutral) {
  // Zero LLR = no information; scattered erasures must not corrupt decoding.
  Rng rng(2);
  const phy::Bits info = phy::random_bits(150, rng);
  auto llrs = to_llrs(encode(info), 1.0);
  for (std::size_t i = 5; i < llrs.size(); i += 17) llrs[i] = 0.0;
  EXPECT_EQ(phy::ConvolutionalCode::decode_soft(llrs), info);
}

TEST(SoftViterbi, LowConfidenceFlipsAreOutvoted) {
  // A flipped bit with tiny confidence should lose against confident
  // neighbours — the soft decoder's advantage over hard decisions.
  Rng rng(3);
  const phy::Bits info = phy::random_bits(150, rng);
  auto llrs = to_llrs(encode(info), 2.0);
  for (std::size_t i = 10; i < llrs.size(); i += 9) {
    llrs[i] = -0.1 * (llrs[i] > 0 ? 1.0 : -1.0);  // weak wrong values
  }
  EXPECT_EQ(phy::ConvolutionalCode::decode_soft(llrs), info);
}

TEST(SoftViterbi, BeatsHardDecisionsInAwgn) {
  Rng rng(4);
  std::size_t soft_errors = 0, hard_errors = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const phy::Bits info = phy::random_bits(144, rng);
    const phy::Bits coded = encode(info);
    std::vector<double> llrs(coded.size());
    phy::Bits hard(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      // BPSK over AWGN at ~1.5 dB Eb/N0-ish.
      const double tx = coded[i] ? 1.0 : -1.0;
      const double rx = tx + rng.normal(0.0, 0.85);
      llrs[i] = rx;
      hard[i] = rx >= 0.0 ? 1 : 0;
    }
    soft_errors += phy::hamming_distance(
        phy::ConvolutionalCode::decode_soft(llrs), info);
    hard_errors += phy::hamming_distance(
        phy::ConvolutionalCode::decode(hard), info);
  }
  EXPECT_LT(soft_errors, hard_errors);
}

}  // namespace
}  // namespace ctj::phy
