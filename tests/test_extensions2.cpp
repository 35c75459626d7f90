// Tests for the second round of extensions: soft-decision Viterbi decoding
// and the adaptive pattern-tracking jammer.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "core/environment.hpp"
#include "core/energy.hpp"
#include "core/rl_fh.hpp"
#include "core/trainer.hpp"
#include "jammer/stealth.hpp"
#include "net/mac.hpp"
#include "net/node.hpp"
#include "phy/wifi_preamble.hpp"
#include "phy/zigbee_packet.hpp"
#include "jammer/adaptive_jammer.hpp"
#include "phy/convolutional.hpp"

namespace ctj {
namespace {

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

// ------------------------------------------------------ adaptive jammer ----

TEST(AdaptiveJammer, LearnsTheHotGroup) {
  jammer::AdaptiveJammer jx(jammer::AdaptiveJammerConfig::defaults(), 5);
  // Victim lives on channel 9 (group 2) for a long stretch.
  for (int slot = 0; slot < 200; ++slot) jx.step(9);
  EXPECT_EQ(jx.most_visited_group(), 2);
  EXPECT_GT(jx.top_group_weight(), 0.5);
}

TEST(AdaptiveJammer, PunishesPredictableVictimsMoreThanSweep) {
  // A victim with a strong channel preference (75 % of slots on channel 9,
  // otherwise uniform): the adaptive jammer camps on the hot group and hits
  // more often than the blind sweeper, which must re-find the victim after
  // every excursion.
  auto config = jammer::AdaptiveJammerConfig::defaults();
  config.exploit_probability = 0.9;
  jammer::AdaptiveJammer adaptive(config, 6);
  jammer::SweepJammer sweep(jammer::SweepJammerConfig::defaults(), 6);

  Rng victim_rng(60);
  int adaptive_hits = 0, sweep_hits = 0;
  for (int slot = 0; slot < 4000; ++slot) {
    const int victim =
        victim_rng.bernoulli(0.75) ? 9 : victim_rng.uniform_int(0, 15);
    adaptive_hits += adaptive.step(victim).hit ? 1 : 0;
    sweep_hits += sweep.step(victim).hit ? 1 : 0;
  }
  EXPECT_GT(adaptive_hits, sweep_hits);
  // Exploiting the hot group alone hits ~0.9 · 0.75 of all slots.
  EXPECT_GT(adaptive_hits, 2000);
}

TEST(AdaptiveJammer, AlternatingVictimStaysAStepAhead) {
  // The flip side (and why the paper's random-hop escape works): a strict
  // two-channel alternation keeps the histogram pointing at *yesterday's*
  // group, so the exploit mode whiffs almost every slot.
  auto config = jammer::AdaptiveJammerConfig::defaults();
  config.exploit_probability = 1.0;
  jammer::AdaptiveJammer adaptive(config, 61);
  int hits = 0;
  for (int slot = 0; slot < 2000; ++slot) {
    hits += adaptive.step(slot % 2 == 0 ? 3 : 9).hit ? 1 : 0;
  }
  EXPECT_LT(hits, 300);
}

TEST(AdaptiveJammer, UniformVictimLimitsTheAdvantage) {
  // Against a uniformly hopping victim the histogram stays flat and the
  // exploit mode is no better than 1/4 per slot.
  auto config = jammer::AdaptiveJammerConfig::defaults();
  config.exploit_probability = 1.0;
  jammer::AdaptiveJammer jx(config, 7);
  Rng rng(8);
  int hits = 0;
  const int slots = 4000;
  for (int slot = 0; slot < slots; ++slot) {
    hits += jx.step(rng.uniform_int(0, 15)).hit ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / slots, 0.25, 0.05);
}

TEST(AdaptiveJammer, ResetForgetsHistory) {
  jammer::AdaptiveJammer jx(jammer::AdaptiveJammerConfig::defaults(), 9);
  for (int slot = 0; slot < 100; ++slot) jx.step(12);
  EXPECT_EQ(jx.most_visited_group(), 3);
  jx.reset();
  EXPECT_NEAR(jx.top_group_weight(), 0.25, 1e-9);
}

TEST(AdaptiveJammer, RejectsBadConfig) {
  auto config = jammer::AdaptiveJammerConfig::defaults();
  config.exploit_probability = 1.5;
  EXPECT_THROW(jammer::AdaptiveJammer(config, 1), CheckFailure);
  config = jammer::AdaptiveJammerConfig::defaults();
  config.decay = 0.0;
  EXPECT_THROW(jammer::AdaptiveJammer(config, 1), CheckFailure);
}

}  // namespace
}  // namespace ctj
namespace ctj {
namespace {

// ------------------------------------------------- late coverage additions ----

TEST(DqnSchemeIo, TrainedPolicySurvivesSaveLoadThroughScheme) {
  core::DqnScheme::Config config;
  config.history = 2;
  config.hidden = {16};
  config.deploy_epsilon = 0.0;
  config.seed = 77;
  core::DqnScheme a(config);
  // Perturb weights with a short training burst.
  core::CompetitionEnvironment env(core::EnvironmentConfig::defaults());
  core::TrainerConfig trainer;
  trainer.max_slots = 600;
  core::train(a, env, trainer);
  a.set_training(false);
  a.reset();

  // The deployment path: the scheme's CTJS state, read back with
  // load_policy() (online weights only).
  io::ContainerWriter out;
  a.save_state(out);
  core::DqnScheme b(config);
  b.agent().load_policy(io::ContainerReader::from_bytes(out.to_bytes()));
  b.set_training(false);
  b.reset();

  for (int i = 0; i < 30; ++i) {
    const auto da = a.decide();
    const auto db = b.decide();
    EXPECT_EQ(da.channel, db.channel);
    EXPECT_EQ(da.power_index, db.power_index);
    core::SlotFeedback fb;
    fb.success = i % 3 != 0;
    fb.channel = da.channel;
    fb.power_index = da.power_index;
    a.feedback(fb);
    b.feedback(fb);
  }
}

TEST(HubCoverage, DuplicateSequencesCounted) {
  net::Hub hub;
  net::MacFrame frame;
  frame.type = net::MacFrameType::kData;
  frame.src_addr = 2;
  frame.sequence = 5;
  frame.payload = {2, 5, 0, 9};
  const auto bytes = phy::ZigbeeFrame::build(frame.serialize());
  EXPECT_TRUE(hub.receive(bytes));
  EXPECT_TRUE(hub.receive(bytes));  // retransmission of the same sequence
  EXPECT_EQ(hub.record(2).duplicates, 1u);
  EXPECT_EQ(hub.record(2).delivered, 2u);
}

TEST(StealthCoverage, WindowlessConfigValidated) {
  jammer::StealthConfig config;
  config.idle_overlap_probability = 0.2;
  const auto r = jammer::analyze_detectability(
      channel::JammingSignalType::kEmuBee, true, config);
  EXPECT_DOUBLE_EQ(r.p_energy, 0.2);
  EXPECT_DOUBLE_EQ(r.p_attributable, 0.2);  // frame evidence never fires
}

TEST(EnergyCoverage, RxOnlySlot) {
  core::EnergyModelConfig config;
  config.tx_duty = 0.0;  // pure listening
  config.rx_power_mw = 12.0;
  core::EnergyAccumulator acc(config);
  acc.record_slot(15.0, 2.0, false);
  EXPECT_DOUBLE_EQ(acc.report().tx_mj, 0.0);
  EXPECT_NEAR(acc.report().total_mj, 24.0, 1e-9);
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

TEST(CsmaCoverage, BackoffExponentGrowsDelayOnBusyChannel) {
  net::CsmaCa csma;
  Rng rng(20);
  // With a busy channel, later backoffs draw from larger windows: the mean
  // delay of failures exceeds 3 unit-backoff draws from BE=3 alone.
  double total = 0.0;
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto attempt = csma.attempt(1.0, rng);
    if (!attempt.success) {
      total += attempt.delay_s;
      ++failures;
    }
  }
  ASSERT_GT(failures, 0);
  const double mean_fail_delay = total / failures;
  // Expected: (3.5 + 7.5 + 15.5 + 15.5) × 320 µs + 4 CCA ≈ 13.9 ms.
  EXPECT_NEAR(mean_fail_delay, 13.9e-3, 1.5e-3);
}

}  // namespace
}  // namespace ctj
namespace ctj {
namespace {

TEST(GroupAwareHops, SameGroupHopBehavesLikeStayButPaysHopCost) {
  // Hopping from channel 0 to channel 1 stays inside the jammer's 4-channel
  // group: the discovery hazard must match the *stay* kernel (1/(N−n)),
  // even though the L_H cost is charged.
  auto config = core::EnvironmentConfig::defaults();
  config.seed = 99;
  core::CompetitionEnvironment env(config);
  std::map<int, std::pair<int, int>> jams_by_n;
  for (int slot = 0; slot < 80000; ++slot) {
    if (env.hidden_kind() ==
        core::CompetitionEnvironment::HiddenKind::kCounting) {
      if (env.current_channel() > 1) {
        // Coming back from an escape: re-enter the observed group first
        // (an out-of-group hop — excluded from the statistics).
        env.step(0, 0);
        continue;
      }
      const int n = env.hidden_n();
      // Toggle between channels 0 and 1 — always the same group.
      const int next = env.current_channel() == 0 ? 1 : 0;
      const auto step = env.step(next, 0);
      EXPECT_TRUE(step.hopped);
      EXPECT_DOUBLE_EQ(step.reward,
                       -config.tx_levels[0] - config.loss_hop -
                           (step.success ? 0.0 : config.loss_jam));
      auto& [jammed, total] = jams_by_n[n];
      ++total;
      if (step.outcome != core::SlotOutcome::kClear) ++jammed;
    } else {
      env.step((env.current_channel() + 5) % 16, 0);  // real escape
    }
  }
  for (int n = 1; n <= 3; ++n) {
    const auto [jammed, total] = jams_by_n[n];
    if (total < 800) continue;
    EXPECT_NEAR(static_cast<double>(jammed) / total, 1.0 / (4 - n), 0.035)
        << "n = " << n;
  }
}

TEST(GroupAwareHops, SameGroupHopDoesNotEscapeDwellingJammer) {
  auto config = core::EnvironmentConfig::defaults();
  config.mode = JammerPowerMode::kMaxPower;
  config.seed = 101;
  core::CompetitionEnvironment env(config);
  // Get jammed by staying put.
  while (env.hidden_kind() ==
         core::CompetitionEnvironment::HiddenKind::kCounting) {
    env.step(env.current_channel(), 0);
  }
  // In-group hops never escape (Case 5 applies, q = 0 in max mode).
  for (int i = 0; i < 30; ++i) {
    const int next = env.current_channel() == 0 ? 1 : 0;
    const auto step = env.step(next, 0);
    EXPECT_EQ(step.outcome, core::SlotOutcome::kJammedFailed);
  }
  // One out-of-group hop escapes immediately (Case 6).
  EXPECT_TRUE(env.step(8, 0).success);
}

}  // namespace
}  // namespace ctj
