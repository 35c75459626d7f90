// Tests for the extension modules: tabular Q-learning (the paper's point of
// comparison for the DQN), Double-DQN, the energy model, the stealthiness
// analysis, the 802.15.4 MAC sublayer, and the Wi-Fi legacy preamble.
#include <gtest/gtest.h>

#include <cmath>

#include "core/energy.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "core/qlearning_scheme.hpp"
#include "jammer/stealth.hpp"
#include "net/mac.hpp"
#include "phy/wifi_preamble.hpp"
#include "rl/qlearning.hpp"

namespace ctj {
namespace {

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

TEST(QLearningScheme, RunsAgainstEnvironment) {
  core::QLearningScheme::Config config;
  config.history = 2;
  core::QLearningScheme scheme(config);
  core::CompetitionEnvironment env(core::EnvironmentConfig::defaults());
  const auto metrics = core::evaluate(scheme, env, 3000);
  EXPECT_EQ(metrics.slots, 3000u);
  EXPECT_GT(scheme.agent().table_size(), 0u);
}

TEST(QLearningScheme, DqnOutlearnsTabularOnEqualBudget) {
  // The paper's Sec. III.C claim: on this observation space the DQN reaches
  // a better policy than tabular Q-learning for the same number of slots.
  const std::size_t budget = 10000;
  auto env_config = core::EnvironmentConfig::defaults();
  env_config.mode = JammerPowerMode::kMaxPower;

  core::QLearningScheme::Config ql_config;
  ql_config.history = 4;
  ql_config.epsilon_decay_steps = budget / 4;
  core::QLearningScheme ql(ql_config);
  {
    env_config.seed = 71;
    core::CompetitionEnvironment env(env_config);
    for (std::size_t slot = 0; slot < budget; ++slot) {
      core::play_slot(ql, env);
    }
    ql.set_training(false);
  }
  env_config.seed = 72;
  core::CompetitionEnvironment ql_env(env_config);
  const auto ql_metrics = core::evaluate(ql, ql_env, 8000);

  core::RlExperimentConfig dqn_config;
  dqn_config.env = env_config;
  dqn_config.env.seed = 71;
  dqn_config.eval_seed = 72;
  dqn_config.scheme.history = 4;
  dqn_config.scheme.hidden = {32, 32};
  dqn_config.scheme.epsilon_decay_steps = budget / 4;
  dqn_config.train_slots = budget;
  dqn_config.eval_slots = 8000;
  const auto dqn_metrics = core::run_rl_experiment(dqn_config).metrics;

  EXPECT_GT(dqn_metrics.st, ql_metrics.st);
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

// ---------------------------------------------------------------- energy ----

TEST(Energy, SingleSlotHandComputed) {
  core::EnergyModelConfig config;
  config.rx_power_mw = 10.0;
  config.tx_duty = 0.5;
  config.hop_energy_mj = 2.0;
  core::EnergyAccumulator acc(config);
  // Level 10 → 0 dBm → 1 mW. Slot 2 s: tx 1 mW × 1 s + rx 10 mW × 1 s + hop.
  acc.record_slot(10.0, 2.0, true);
  const auto r = acc.report();
  EXPECT_NEAR(r.tx_mj, 1.0, 1e-9);
  EXPECT_NEAR(r.hop_mj, 2.0, 1e-9);
  EXPECT_NEAR(r.total_mj, 1.0 + 10.0 + 2.0, 1e-9);
  EXPECT_NEAR(r.mean_mw, 6.5, 1e-9);
  EXPECT_EQ(r.slots, 1u);
}

TEST(Energy, HigherLevelsCostMore) {
  core::EnergyAccumulator low, high;
  low.record_slot(6.0, 1.0, false);
  high.record_slot(15.0, 1.0, false);
  EXPECT_GT(high.report().total_mj, low.report().total_mj);
}

TEST(Energy, BatteryLifeInverseToDraw) {
  core::EnergyAccumulator acc;
  acc.record_slot(10.0, 1.0, false);
  const auto r = acc.report();
  EXPECT_NEAR(r.battery_life_hours, acc.config().battery_mwh / r.mean_mw,
              1e-9);
}

TEST(Energy, ResetClears) {
  core::EnergyAccumulator acc;
  acc.record_slot(10.0, 1.0, true);
  acc.reset();
  EXPECT_EQ(acc.report().slots, 0u);
  EXPECT_DOUBLE_EQ(acc.report().total_mj, 0.0);
}

// ---------------------------------------------------------------- stealth ----

TEST(Stealth, EmuBeeIsLeastAttributable) {
  using channel::JammingSignalType;
  const auto emubee = jammer::analyze_detectability(JammingSignalType::kEmuBee, true);
  const auto zigbee = jammer::analyze_detectability(JammingSignalType::kZigbee, true);
  EXPECT_LT(emubee.p_attributable, zigbee.p_attributable);
  // All effective jammers show up in the error rate — that alone does not
  // identify an attacker.
  EXPECT_DOUBLE_EQ(emubee.p_error_rate, 1.0);
  EXPECT_DOUBLE_EQ(zigbee.p_error_rate, 1.0);
}

TEST(Stealth, IneffectiveJamOnlyEnergyDetectable) {
  const auto r = jammer::analyze_detectability(
      channel::JammingSignalType::kZigbee, /*jam_effective=*/false);
  EXPECT_DOUBLE_EQ(r.p_frame, 0.0);
  EXPECT_DOUBLE_EQ(r.p_error_rate, 0.0);
  EXPECT_GT(r.p_energy, 0.0);
}

TEST(Stealth, SimulationMatchesAnalysis) {
  Rng rng(7);
  for (auto type : {channel::JammingSignalType::kEmuBee,
                    channel::JammingSignalType::kZigbee,
                    channel::JammingSignalType::kWifi}) {
    const auto analytic = jammer::analyze_detectability(type, true);
    const auto simulated = jammer::simulate_detectability(type, 20000, rng);
    EXPECT_NEAR(simulated.p_frame, analytic.p_frame, 0.02);
    EXPECT_NEAR(simulated.p_energy, analytic.p_energy, 0.01);
    EXPECT_NEAR(simulated.p_attributable, analytic.p_attributable, 0.02);
  }
}

// -------------------------------------------------------------------- MAC ----

TEST(Mac, DataFrameRoundTrip) {
  net::MacFrame frame;
  frame.type = net::MacFrameType::kData;
  frame.ack_request = true;
  frame.sequence = 42;
  frame.pan_id = 0xBEEF;
  frame.dest_addr = 0x0001;
  frame.src_addr = 0x0A0B;
  frame.payload = {1, 2, 3, 4};
  const auto bytes = frame.serialize();
  const auto parsed = net::MacFrame::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, net::MacFrameType::kData);
  EXPECT_TRUE(parsed->ack_request);
  EXPECT_EQ(parsed->sequence, 42);
  EXPECT_EQ(parsed->pan_id, 0xBEEF);
  EXPECT_EQ(parsed->dest_addr, 0x0001);
  EXPECT_EQ(parsed->src_addr, 0x0A0B);
  EXPECT_EQ(parsed->payload, frame.payload);
}

TEST(Mac, AckFrameIsMinimal) {
  net::MacFrame data;
  data.sequence = 9;
  data.ack_request = true;
  const net::MacFrame ack = data.make_ack();
  const auto bytes = ack.serialize();
  EXPECT_EQ(bytes.size(), 3u);  // FCF + sequence only
  const auto parsed = net::MacFrame::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(data.acked_by(*parsed));
}

TEST(Mac, WrongSequenceDoesNotAck) {
  net::MacFrame data;
  data.sequence = 9;
  net::MacFrame ack = data.make_ack();
  ack.sequence = 10;
  EXPECT_FALSE(data.acked_by(ack));
}

TEST(Mac, ParseRejectsGarbage) {
  const std::vector<std::uint8_t> tiny = {0x01};
  EXPECT_FALSE(net::MacFrame::parse(tiny).has_value());
  // Addressed frame truncated before the addressing fields.
  std::vector<std::uint8_t> truncated = {0x01, 0x08, 0x05, 0xFE};
  EXPECT_FALSE(net::MacFrame::parse(truncated).has_value());
}

TEST(Mac, FrameTypeNames) {
  EXPECT_STREQ(net::to_string(net::MacFrameType::kAck), "ack");
  EXPECT_STREQ(net::to_string(net::MacFrameType::kBeacon), "beacon");
}

TEST(CsmaCa, IdleChannelGrantsQuickly) {
  net::CsmaCa csma;
  Rng rng(8);
  const auto attempt = csma.attempt(0.0, rng);
  EXPECT_TRUE(attempt.success);
  EXPECT_EQ(attempt.backoffs, 1);
  // Max first backoff: 7 units × 320 µs + one CCA.
  EXPECT_LE(attempt.delay_s, 7 * 320e-6 + 128e-6 + 1e-12);
}

TEST(CsmaCa, AlwaysBusyChannelFails) {
  net::CsmaCa csma;
  Rng rng(9);
  const auto attempt = csma.attempt(1.0, rng);
  EXPECT_FALSE(attempt.success);
  EXPECT_EQ(attempt.backoffs, csma.config().max_backoffs);
}

TEST(CsmaCa, DelayGrowsWithBusyProbability) {
  net::CsmaCa csma;
  Rng rng(10);
  auto mean_delay = [&](double busy) {
    double total = 0.0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i) total += csma.attempt(busy, rng).delay_s;
    return total / trials;
  };
  EXPECT_LT(mean_delay(0.0), mean_delay(0.5));
  EXPECT_LT(mean_delay(0.5), mean_delay(0.9));
}

TEST(CsmaCa, SuccessRateMatchesGeometricBound) {
  net::CsmaCa csma;
  Rng rng(11);
  const double busy = 0.5;
  int successes = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    successes += csma.attempt(busy, rng).success ? 1 : 0;
  }
  // P(success) = 1 − busy^max_backoffs = 1 − 0.5^4.
  EXPECT_NEAR(static_cast<double>(successes) / trials, 1.0 - std::pow(0.5, 4),
              0.02);
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

}  // namespace
}  // namespace ctj
