// EmuBee: emulating ZigBee waveforms with a Wi-Fi transmitter (Sec. II.A).
//
// The attacker designs a target ZigBee baseband waveform, runs the Wi-Fi PHY
// *backwards* (FFT → 64-QAM quantization → deinterleave → Viterbi decode →
// descramble, Fig. 1) to obtain the Wi-Fi payload bits whose transmission best
// approximates that waveform, then the commodity forward chain reproduces the
// emulated waveform. The 64-QAM quantization scale α is chosen to minimize the
// total quantization error E(α) of Eqs. (1)–(2), which is piecewise quadratic
// and in practice unimodal; we bracket the minimum with a coarse scan and
// refine with golden-section search (the paper's binary search equivalent).
#pragma once

#include <cstdint>

#include "phy/bits.hpp"
#include "phy/convolutional.hpp"
#include "phy/iq.hpp"
#include "phy/wifi_phy.hpp"
#include "phy/zigbee_phy.hpp"

namespace ctj::phy {

/// Eq. (1): E(α) = Σ_j min_i |α·P_i − P_j|² over the 64-QAM grid.
double quantization_error(std::span<const Cplx> targets, double alpha);

/// Eq. (2): argmin_α E(α) over (0, alpha_max]; alpha_max <= 0 auto-ranges
/// from the target magnitudes. Coarse scan + golden-section refinement.
double optimal_alpha(std::span<const Cplx> targets, double alpha_max = 0.0);

struct EmulationResult {
  /// Designed waveform resampled onto the OFDM useful-sample grid
  /// (64 samples per OFDM symbol, cyclic prefixes not represented).
  IqBuffer designed;
  /// What a Wi-Fi card actually emits for the recovered payload, same grid.
  IqBuffer emulated;
  /// The recovered Wi-Fi payload bits (what the attacker injects).
  Bits payload_bits;
  double alpha = 1.0;             // chosen quantization scale
  double quantization_error = 0;  // E(alpha) summed over all symbols
  double evm = 0;                 // designed vs emulated error vector magnitude
};

class EmuBeeEmulator {
 public:
  struct Config {
    CodeRate rate = CodeRate::kRate1of2;
    std::uint8_t scrambler_seed = 0x5D;
    /// When false, skip Eq. (2) and use `fixed_alpha` — the naive emulation
    /// the paper improves upon.
    bool optimize_alpha = true;
    double fixed_alpha = 1.0;
  };

  EmuBeeEmulator() : EmuBeeEmulator(Config{}) {}
  explicit EmuBeeEmulator(Config config);

  /// Emulate an arbitrary designed waveform sampled at 20 Msps. The waveform
  /// is zero-padded to a whole number of 64-sample OFDM symbols. Keeps no
  /// state between calls.
  EmulationResult emulate(std::span<const Cplx> designed_20msps) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  WifiPhy wifi_;
};

/// Build a designed ZigBee waveform at the Wi-Fi sample rate (20 Msps,
/// 10 samples/chip), optionally frequency-shifted so the 2 MHz ZigBee channel
/// sits at `freq_offset_hz` from the Wi-Fi channel center.
IqBuffer design_zigbee_waveform(std::span<const std::size_t> symbols,
                                double freq_offset_hz = 0.0);

struct FidelityReport {
  double evm = 0.0;              // waveform-level error
  double chip_error_rate = 0.0;  // after a ZigBee receiver despreads it
  double symbol_error_rate = 0.0;
};

/// Judge how well an emulated waveform impersonates the intended ZigBee
/// symbols: shift back to baseband and run it through the ZigBee demodulator.
FidelityReport assess_fidelity(const EmulationResult& result,
                               std::span<const std::size_t> sent_symbols,
                               double freq_offset_hz = 0.0);

}  // namespace ctj::phy
