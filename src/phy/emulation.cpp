#include "phy/emulation.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "common/math_util.hpp"
#include "phy/ofdm.hpp"
#include "phy/qam.hpp"
#include "phy/scrambler.hpp"

namespace ctj::phy {

double quantization_error(std::span<const Cplx> targets, double alpha) {
  CTJ_CHECK(alpha > 0.0);
  // std::complex<double> is array-oriented-access compatible: a span of
  // targets is a flat (re, im) stream for the kernel. The scalar kernel
  // level reproduces the old Qam64::quantize-based loop bit for bit.
  const auto* iq = reinterpret_cast<const double*>(targets.data());
  return kern::ops().qam64_error(iq, targets.size(), alpha,
                                 Qam64::normalization());
}

double optimal_alpha(std::span<const Cplx> targets, double alpha_max) {
  CTJ_CHECK(!targets.empty());
  if (!(alpha_max > 0.0)) {
    double max_mag = 0.0;
    for (const Cplx& t : targets) max_mag = std::max(max_mag, std::abs(t));
    // The smallest grid magnitude is sqrt(2)/sqrt(42) ≈ 0.218; α beyond
    // max|P_j| / 0.218 cannot reduce the error further.
    alpha_max = std::max(max_mag * 5.0, 1e-6);
  }
  // E(α) is piecewise quadratic in α and only near-unimodal (the nearest-
  // point assignment switches at cell boundaries), so a dense scan first
  // locates candidate basins, then golden-section search refines the best
  // few brackets. Still O(M log M)-class like the paper's binary search.
  constexpr std::size_t kScanPoints = 512;
  const auto grid = linspace(alpha_max / static_cast<double>(kScanPoints),
                             alpha_max, kScanPoints);
  std::vector<double> errs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    errs[i] = quantization_error(targets, grid[i]);
  }
  // Collect local minima of the scan, keep the three deepest basins.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool left_ok = i == 0 || errs[i] <= errs[i - 1];
    const bool right_ok = i + 1 == grid.size() || errs[i] <= errs[i + 1];
    if (left_ok && right_ok) candidates.push_back(i);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) { return errs[a] < errs[b]; });
  if (candidates.size() > 3) candidates.resize(3);

  double best_alpha = grid[argmin(errs)];
  double best_err = errs[argmin(errs)];
  for (std::size_t idx : candidates) {
    const double lo = idx == 0 ? grid[0] / 2.0 : grid[idx - 1];
    const double hi = idx + 1 == grid.size() ? grid[idx] : grid[idx + 1];
    const double a = minimize_unimodal(
        [&](double v) { return quantization_error(targets, v); }, lo, hi,
        alpha_max * 1e-8);
    const double e = quantization_error(targets, a);
    if (e < best_err) {
      best_err = e;
      best_alpha = a;
    }
  }
  return best_alpha;
}

EmuBeeEmulator::EmuBeeEmulator(Config config)
    : config_(config), wifi_(config.rate, config.scrambler_seed) {}

EmulationResult EmuBeeEmulator::emulate(
    std::span<const Cplx> designed_20msps) const {
  CTJ_CHECK(!designed_20msps.empty());
  EmulationResult result;

  // Pad to whole OFDM symbols (64 useful samples each).
  result.designed.assign(designed_20msps.begin(), designed_20msps.end());
  const std::size_t rem = result.designed.size() % Ofdm::kFftSize;
  if (rem != 0) {
    result.designed.resize(result.designed.size() + (Ofdm::kFftSize - rem),
                           Cplx(0.0, 0.0));
  }
  const std::size_t blocks = result.designed.size() / Ofdm::kFftSize;

  // The joint set of data-subcarrier targets Eq. (1) sums over, gathered
  // through one cached 64-point plan and a reused spectrum scratch (the
  // targets themselves are all the quantizer needs — full spectra are not
  // kept around).
  static const auto data_bins = [] {
    std::array<std::size_t, Ofdm::kDataSubcarriers> bins{};
    const auto& dsc = Ofdm::data_subcarriers();
    for (std::size_t i = 0; i < bins.size(); ++i) {
      bins[i] = Ofdm::bin_of(dsc[i]);
    }
    return bins;
  }();
  IqBuffer spectrum;
  IqBuffer targets;
  targets.reserve(blocks * Ofdm::kDataSubcarriers);
  for (std::size_t b = 0; b < blocks; ++b) {
    Ofdm::symbol_spectrum_into(
        std::span<const Cplx>(result.designed.data() + b * Ofdm::kFftSize,
                              Ofdm::kFftSize),
        spectrum);
    for (std::size_t bin : data_bins) targets.push_back(spectrum[bin]);
  }

  result.alpha = config_.optimize_alpha ? optimal_alpha(targets)
                                        : config_.fixed_alpha;
  CTJ_CHECK(result.alpha > 0.0);
  result.quantization_error = quantization_error(targets, result.alpha);

  // Inverse chain (Fig. 1): quantize → demap → deinterleave → Viterbi →
  // descramble. The quantized targets for the whole packet go through one
  // batched decode_payload_points call (identical to the old per-symbol
  // loop, which re-derived these spectra points per block).
  IqBuffer quantized(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    quantized[i] = Qam64::quantize(targets[i], result.alpha) /
                   result.alpha;  // back on the unit grid for demapping
  }
  Scrambler descrambler(config_.scrambler_seed);
  result.payload_bits = wifi_.decode_payload_points(quantized, descrambler);

  // Forward chain: what the Wi-Fi card actually emits for that payload.
  const IqBuffer tx = wifi_.transmit(result.payload_bits);
  CTJ_CHECK(tx.size() == blocks * Ofdm::kSymbolLength);
  result.emulated.reserve(blocks * Ofdm::kFftSize);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto* begin = tx.data() + b * Ofdm::kSymbolLength + Ofdm::kCpLength;
    result.emulated.insert(result.emulated.end(), begin,
                           begin + Ofdm::kFftSize);
  }
  // The forward chain works on the unit QAM grid; restore the designed scale.
  for (Cplx& s : result.emulated) s *= result.alpha;

  result.evm = evm(result.designed, result.emulated);
  return result;
}

IqBuffer design_zigbee_waveform(std::span<const std::size_t> symbols,
                                double freq_offset_hz) {
  // 20 Msps / 2 Mchip/s = 10 samples per chip.
  const ZigbeePhy zigbee(10);
  IqBuffer wave = zigbee.modulate_symbols(symbols);
  if (freq_offset_hz != 0.0) {
    frequency_shift(wave, freq_offset_hz, Ofdm::kSampleRateHz);
  }
  return wave;
}

FidelityReport assess_fidelity(const EmulationResult& result,
                               std::span<const std::size_t> sent_symbols,
                               double freq_offset_hz) {
  CTJ_CHECK(!sent_symbols.empty());
  FidelityReport report;
  report.evm = result.evm;

  IqBuffer baseband = result.emulated;
  if (freq_offset_hz != 0.0) {
    frequency_shift(baseband, -freq_offset_hz, Ofdm::kSampleRateHz);
  }
  const ZigbeePhy zigbee(10);
  report.chip_error_rate = zigbee.chip_error_rate(baseband, sent_symbols);
  const auto decoded = zigbee.demodulate_symbols(baseband, sent_symbols.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < sent_symbols.size(); ++i) {
    errors += decoded[i] != sent_symbols[i] ? 1 : 0;
  }
  report.symbol_error_rate =
      static_cast<double>(errors) / static_cast<double>(sent_symbols.size());
  return report;
}

}  // namespace ctj::phy
