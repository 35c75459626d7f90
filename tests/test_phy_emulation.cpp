// Tests for the Wi-Fi PHY chain (including the legacy preamble and SIGNAL
// field) and the EmuBee emulation (Sec. II.A, Fig. 1, Eqs. 1–2).
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "phy/emulation.hpp"
#include "phy/ofdm.hpp"
#include "phy/qam.hpp"
#include "phy/wifi_phy.hpp"
#include "phy/wifi_preamble.hpp"

namespace ctj::phy {
namespace {

// ------------------------------------------------------------- Wi-Fi PHY ----

TEST(WifiPhy, InfoBitsPerSymbol) {
  EXPECT_EQ(WifiPhy(CodeRate::kRate1of2).info_bits_per_symbol(), 144u);
  EXPECT_EQ(WifiPhy(CodeRate::kRate2of3).info_bits_per_symbol(), 192u);
  EXPECT_EQ(WifiPhy(CodeRate::kRate3of4).info_bits_per_symbol(), 216u);
}

TEST(WifiPhy, CleanTxRxRoundTripSingleSymbol) {
  Rng rng(1);
  WifiPhy phy;
  const Bits info = random_bits(phy.info_bits_per_symbol(), rng);
  const IqBuffer wave = phy.transmit(info);
  EXPECT_EQ(wave.size(), Ofdm::kSymbolLength);
  EXPECT_EQ(phy.receive(wave), info);
}

TEST(WifiPhy, CleanTxRxRoundTripMultiSymbol) {
  Rng rng(2);
  for (CodeRate rate : {CodeRate::kRate1of2, CodeRate::kRate3of4}) {
    WifiPhy phy(rate);
    const Bits info = random_bits(phy.info_bits_per_symbol() * 5, rng);
    EXPECT_EQ(phy.receive(phy.transmit(info)), info);
  }
}

TEST(WifiPhy, SurvivesMildAwgn) {
  Rng rng(3);
  WifiPhy phy;
  const Bits info = random_bits(phy.info_bits_per_symbol() * 4, rng);
  IqBuffer wave = phy.transmit(info);
  // QAM points have unit average power spread over 64 bins -> time-domain
  // average power ~52/64/64; keep noise well below that scale.
  for (Cplx& v : wave) {
    v += Cplx(rng.normal(0.0, 0.004), rng.normal(0.0, 0.004));
  }
  EXPECT_EQ(phy.receive(wave), info);
}

TEST(WifiPhy, RejectsPartialSymbols) {
  WifiPhy phy;
  const Bits info(100, 0);
  EXPECT_THROW(phy.transmit(info), CheckFailure);
}

// ------------------------------------------------- quantization (Eq. 1) ----

TEST(QuantizationError, ZeroWhenTargetsOnGrid) {
  IqBuffer targets;
  for (std::size_t i = 0; i < 64; ++i) targets.push_back(Qam64::point(i) * 3.0);
  EXPECT_NEAR(quantization_error(targets, 3.0), 0.0, 1e-18);
}

TEST(QuantizationError, PositiveOffGrid) {
  const IqBuffer targets = {Cplx(0.123, 0.456), Cplx(-0.7, 0.2)};
  EXPECT_GT(quantization_error(targets, 1.0), 0.0);
}

TEST(QuantizationError, MatchesBruteForce) {
  Rng rng(4);
  IqBuffer targets(32);
  for (Cplx& t : targets) t = Cplx(rng.normal(), rng.normal());
  for (double alpha : {0.3, 1.0, 2.7}) {
    double brute = 0.0;
    for (const Cplx& t : targets) {
      double best = 1e300;
      for (std::size_t i = 0; i < 64; ++i) {
        best = std::min(best, std::norm(Qam64::point(i) * alpha - t));
      }
      brute += best;
    }
    EXPECT_NEAR(quantization_error(targets, alpha), brute, 1e-9);
  }
}

class OptimalAlpha : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalAlpha, BeatsFineGridScan) {
  Rng rng(GetParam());
  IqBuffer targets(48);
  const double scale = rng.uniform(0.2, 4.0);
  for (Cplx& t : targets) {
    t = Cplx(rng.normal(0.0, scale), rng.normal(0.0, scale));
  }
  const double alpha = optimal_alpha(targets);
  const double e_opt = quantization_error(targets, alpha);
  // Compare to a fine grid scan — Eq. (2)'s optimum must be no worse.
  for (double a : linspace(0.05, 5.0 * scale, 400)) {
    EXPECT_LE(e_opt, quantization_error(targets, a) + 1e-7)
        << "grid alpha " << a << " beats the optimizer";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalAlpha,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(OptimalAlpha, RecoversKnownScale) {
  // Targets exactly on a scaled grid: the optimizer must find that scale.
  Rng rng(6);
  IqBuffer targets;
  for (int i = 0; i < 48; ++i) {
    targets.push_back(Qam64::point(rng.index(64)) * 1.85);
  }
  EXPECT_NEAR(optimal_alpha(targets), 1.85, 1e-3);
}

// ------------------------------------------------------ EmuBee emulation ----

TEST(EmuBee, EmulatedWaveformIsWifiTransmittable) {
  // Whatever payload the inverse chain recovers, the forward chain must be
  // able to transmit it and reproduce result.emulated exactly — that is the
  // whole point: the attack uses a commodity Wi-Fi card.
  Rng rng(7);
  std::vector<std::size_t> syms(8);
  for (auto& s : syms) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  const IqBuffer designed = design_zigbee_waveform(syms);
  EmuBeeEmulator emulator;
  const auto result = emulator.emulate(designed);
  EXPECT_EQ(result.payload_bits.size() % 144, 0u);
  WifiPhy wifi;
  const IqBuffer tx = wifi.transmit(result.payload_bits);
  // Strip CPs and rescale as the emulator does.
  std::size_t idx = 0;
  for (std::size_t b = 0; b < tx.size() / Ofdm::kSymbolLength; ++b) {
    for (std::size_t i = 0; i < Ofdm::kFftSize; ++i) {
      const Cplx expected =
          tx[b * Ofdm::kSymbolLength + Ofdm::kCpLength + i] * result.alpha;
      EXPECT_NEAR(std::abs(expected - result.emulated[idx]), 0.0, 1e-9);
      ++idx;
    }
  }
}

TEST(EmuBee, OptimizedAlphaBeatsNaiveScale) {
  Rng rng(8);
  std::vector<std::size_t> syms(16);
  for (auto& s : syms) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  const IqBuffer designed = design_zigbee_waveform(syms);

  EmuBeeEmulator::Config optimized;
  optimized.optimize_alpha = true;
  EmuBeeEmulator::Config naive;
  naive.optimize_alpha = false;
  naive.fixed_alpha = 1.0;  // ignores the waveform's spectral scale

  const auto opt = EmuBeeEmulator(optimized).emulate(designed);
  const auto raw = EmuBeeEmulator(naive).emulate(designed);
  EXPECT_LT(opt.quantization_error, raw.quantization_error);
}

TEST(EmuBee, EmulateIsStateless) {
  // emulate() carries nothing from one call to the next: the same waveform
  // gives the same α, error and payload, even with another waveform
  // emulated in between.
  Rng rng(12);
  std::vector<std::size_t> syms(16), other(16);
  for (auto& s : syms) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  for (auto& s : other) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  const IqBuffer designed = design_zigbee_waveform(syms);
  const EmuBeeEmulator emulator;
  const auto first = emulator.emulate(designed);
  emulator.emulate(design_zigbee_waveform(other, 3e6));
  const auto second = emulator.emulate(designed);
  EXPECT_EQ(first.alpha, second.alpha);
  EXPECT_EQ(first.quantization_error, second.quantization_error);
  EXPECT_EQ(first.payload_bits, second.payload_bits);
}

TEST(EmuBee, ChipErrorRateFoolsDespreader) {
  // The acid test of Sec. II.A: a ZigBee receiver despreading the *emulated*
  // waveform should recover most chips — enough to treat it as a ZigBee
  // signal rather than noise (~50 % CER).
  Rng rng(9);
  std::vector<std::size_t> syms(32);
  for (auto& s : syms) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  const IqBuffer designed = design_zigbee_waveform(syms);
  const auto result = EmuBeeEmulator().emulate(designed);
  const auto fidelity = assess_fidelity(result, syms);
  EXPECT_LT(fidelity.chip_error_rate, 0.25);
  // The Viterbi codeword projection distorts the waveform substantially
  // (only rate-1/2 codewords are transmittable), yet the despreader still
  // recovers the chips — exactly the WeBee-style emulation trade-off.
  EXPECT_LT(fidelity.evm, 2.0);
}

TEST(EmuBee, EmulationPreservesEnoughStructureForSymbols) {
  Rng rng(10);
  std::vector<std::size_t> syms(32);
  for (auto& s : syms) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  const auto result = EmuBeeEmulator().emulate(design_zigbee_waveform(syms));
  const auto fidelity = assess_fidelity(result, syms);
  // DSSS margin: with CER below ~25 %, most symbols despread correctly.
  EXPECT_LT(fidelity.symbol_error_rate, 0.2);
}

TEST(EmuBee, PadsToWholeOfdmSymbols) {
  IqBuffer designed(100, Cplx(0.5, 0.0));  // not a multiple of 64
  const auto result = EmuBeeEmulator().emulate(designed);
  EXPECT_EQ(result.designed.size() % Ofdm::kFftSize, 0u);
  EXPECT_EQ(result.designed.size(), result.emulated.size());
}

TEST(EmuBee, FrequencyShiftedChannelStillEmulates) {
  // Emulating a ZigBee channel offset from the Wi-Fi center (the usual case:
  // a 2 MHz channel inside the 20 MHz band).
  Rng rng(11);
  std::vector<std::size_t> syms(16);
  for (auto& s : syms) s = static_cast<std::size_t>(rng.uniform_int(0, 15));
  const double offset_hz = 5e6;
  const IqBuffer designed = design_zigbee_waveform(syms, offset_hz);
  const auto result = EmuBeeEmulator().emulate(designed);
  const auto fidelity = assess_fidelity(result, syms, offset_hz);
  EXPECT_LT(fidelity.chip_error_rate, 0.3);
}

TEST(EmuBee, DesignWaveformLengthAndRate) {
  const std::vector<std::size_t> syms = {0, 1};
  const IqBuffer wave = design_zigbee_waveform(syms);
  // 10 samples/chip at 20 Msps: 2 symbols × 320 + 10 tail samples.
  EXPECT_EQ(wave.size(), 2 * 320 + 10u);
}

// --------------------------------------------------------- Wi-Fi preamble ----

TEST(WifiPreamble, StfHas16SamplePeriodicity) {
  const auto stf = phy::WifiPreamble::short_training_field();
  ASSERT_EQ(stf.size(), 160u);
  for (std::size_t i = 0; i + 16 < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0, 1e-9);
  }
}

TEST(WifiPreamble, StfAutocorrelationNearOne) {
  const auto stf = phy::WifiPreamble::short_training_field();
  EXPECT_NEAR(phy::WifiPreamble::autocorrelation(stf, 16), 1.0, 1e-6);
}

TEST(WifiPreamble, DetectsStfUnderNoise) {
  Rng rng(12);
  auto stf = phy::WifiPreamble::short_training_field();
  const double signal_rms = std::sqrt(phy::average_power(stf));
  for (auto& s : stf) {
    s += phy::Cplx(rng.normal(0.0, 0.15 * signal_rms),
                   rng.normal(0.0, 0.15 * signal_rms));
  }
  EXPECT_TRUE(phy::WifiPreamble::detect_stf(stf));
}

TEST(WifiPreamble, NoiseDoesNotTriggerDetection) {
  Rng rng(13);
  phy::IqBuffer noise(160);
  for (auto& s : noise) s = phy::Cplx(rng.normal(), rng.normal());
  EXPECT_FALSE(phy::WifiPreamble::detect_stf(noise));
}

TEST(WifiPreamble, LtfSymbolsRepeat) {
  const auto ltf = phy::WifiPreamble::long_training_field();
  ASSERT_EQ(ltf.size(), 160u);
  for (std::size_t i = 32; i + 64 < ltf.size(); ++i) {
    EXPECT_NEAR(std::abs(ltf[i] - ltf[i + 64]), 0.0, 1e-9);
  }
}

TEST(WifiSignal, BitsRoundTrip) {
  phy::WifiSignalField field;
  field.rate_code = 0b1101;
  field.length_bytes = 1432;
  const auto bits = field.encode_bits();
  ASSERT_EQ(bits.size(), 24u);
  const auto decoded = phy::WifiSignalField::decode_bits(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rate_code, 0b1101);
  EXPECT_EQ(decoded->length_bytes, 1432);
}

TEST(WifiSignal, ParityViolationRejected) {
  phy::WifiSignalField field;
  field.length_bytes = 100;
  auto bits = field.encode_bits();
  bits[3] ^= 1;  // flip a rate bit without fixing parity
  EXPECT_FALSE(phy::WifiSignalField::decode_bits(bits).has_value());
}

TEST(WifiSignal, OfdmSymbolRoundTrip) {
  phy::WifiSignalField field;
  field.rate_code = 0b0011;  // 54 Mbps, the EmuBee operating point
  field.length_bytes = 2047;
  const auto symbol = field.modulate();
  EXPECT_EQ(symbol.size(), 80u);
  const auto decoded = phy::WifiSignalField::demodulate(symbol);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rate_code, field.rate_code);
  EXPECT_EQ(decoded->length_bytes, field.length_bytes);
}

TEST(WifiSignal, LengthFieldBounds) {
  phy::WifiSignalField field;
  field.length_bytes = 4096;  // 13 bits: invalid
  EXPECT_THROW(field.encode_bits(), CheckFailure);
}

TEST(PreambleCoverage, FullFramePreambleThenSignalParses) {
  // Assemble STF | LTF | SIGNAL as a transmitter would, then detect and
  // parse from the receiver side.
  phy::IqBuffer frame = phy::WifiPreamble::short_training_field();
  const auto ltf = phy::WifiPreamble::long_training_field();
  frame.insert(frame.end(), ltf.begin(), ltf.end());
  phy::WifiSignalField signal;
  signal.rate_code = 0b0011;
  signal.length_bytes = 1500;
  const auto sig_symbol = signal.modulate();
  frame.insert(frame.end(), sig_symbol.begin(), sig_symbol.end());

  EXPECT_TRUE(phy::WifiPreamble::detect_stf(frame));
  const std::span<const phy::Cplx> sig_span(frame.data() + 320, 80);
  const auto decoded = phy::WifiSignalField::demodulate(sig_span);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->length_bytes, 1500);
}

}  // namespace
}  // namespace ctj::phy
