// Tests for the slot-level competition environment: its sampled transition
// frequencies must match the MDP kernel of Eqs. (6)–(14), and the Table-I
// metrics accumulator must match hand-computed values; the energy model and
// the group-aware hop kernel.
#include <gtest/gtest.h>

#include <map>

#include "core/energy.hpp"
#include "core/environment.hpp"
#include "core/metrics.hpp"

namespace ctj::core {
namespace {

TEST(EnvironmentConfig, DefaultsMatchPaper) {
  const auto c = EnvironmentConfig::defaults();
  EXPECT_EQ(c.num_channels, 16);
  EXPECT_EQ(c.channels_per_sweep, 4);
  EXPECT_EQ(c.sweep_cycle(), 4);
  EXPECT_EQ(c.tx_levels.size(), 10u);
  EXPECT_DOUBLE_EQ(c.loss_jam, 100.0);
  EXPECT_DOUBLE_EQ(c.loss_hop, 50.0);
}

TEST(Environment, InitialState) {
  CompetitionEnvironment env(EnvironmentConfig::defaults());
  EXPECT_EQ(env.current_channel(), 0);
  EXPECT_EQ(env.hidden_kind(), CompetitionEnvironment::HiddenKind::kCounting);
  EXPECT_EQ(env.hidden_n(), 1);
}

TEST(Environment, RewardMatchesEq5) {
  auto config = EnvironmentConfig::defaults();
  config.seed = 42;
  CompetitionEnvironment env(config);
  for (int i = 0; i < 200; ++i) {
    const bool hop = i % 3 == 0;
    const int channel = hop ? (env.current_channel() + 1) % 16
                            : env.current_channel();
    const std::size_t power = static_cast<std::size_t>(i % 10);
    const EnvStep step = env.step(channel, power);
    double expected = -config.tx_levels[power];
    if (hop) expected -= config.loss_hop;
    if (!step.success) expected -= config.loss_jam;
    EXPECT_DOUBLE_EQ(step.reward, expected);
    EXPECT_EQ(step.hopped, hop);
  }
}

TEST(Environment, StayingForeverIsEventuallyJammed) {
  // With max-power jamming and no hops, the sweep finds the victim within
  // one cycle and then jams every slot.
  auto config = EnvironmentConfig::defaults();
  config.mode = JammerPowerMode::kMaxPower;
  CompetitionEnvironment env(config);
  int first_jam = -1;
  for (int slot = 0; slot < 10; ++slot) {
    const EnvStep step = env.step(0, 0);
    if (step.outcome != SlotOutcome::kClear && first_jam < 0) first_jam = slot;
  }
  ASSERT_GE(first_jam, 0);
  EXPECT_LT(first_jam, 4);  // ⌈K/m⌉ = 4 slots max
  // After discovery, staying keeps the victim jammed (Case 5).
  for (int slot = 0; slot < 5; ++slot) {
    EXPECT_NE(env.step(0, 0).outcome, SlotOutcome::kClear);
  }
}

TEST(Environment, HoppingFromJammedStateAlwaysEscapes) {
  // Case 6 / Eq. (14): P(1 | T_J or J, hop) = 1.
  auto config = EnvironmentConfig::defaults();
  config.seed = 7;
  CompetitionEnvironment env(config);
  int escapes = 0, opportunities = 0;
  for (int slot = 0; slot < 5000; ++slot) {
    const bool jammed_now =
        env.hidden_kind() != CompetitionEnvironment::HiddenKind::kCounting;
    if (jammed_now) {
      ++opportunities;
      const int next = (env.current_channel() + 5) % 16;
      const EnvStep step = env.step(next, 0);
      if (step.outcome == SlotOutcome::kClear) ++escapes;
    } else {
      env.step(env.current_channel(), 0);  // stay until jammed
    }
  }
  ASSERT_GT(opportunities, 100);
  EXPECT_EQ(escapes, opportunities);
}

TEST(Environment, MaxPowerModeNeverSurvivesJamming) {
  auto config = EnvironmentConfig::defaults();
  config.mode = JammerPowerMode::kMaxPower;
  config.seed = 9;
  CompetitionEnvironment env(config);
  for (int slot = 0; slot < 2000; ++slot) {
    const EnvStep step = env.step(env.current_channel(), 9);  // max tx power
    EXPECT_NE(step.outcome, SlotOutcome::kJammedSurvived);
    if (step.outcome == SlotOutcome::kJammedFailed) {
      env.step((env.current_channel() + 3) % 16, 9);
    }
  }
}

TEST(Environment, RandomModeSurvivalFrequencyMatchesQ) {
  // In the random-power mode with tx level 15 (index 9), q = 0.5: given the
  // slot was jammed, the victim survives about half the time (Eqs. 7–8).
  auto config = EnvironmentConfig::defaults();
  config.mode = JammerPowerMode::kRandomPower;
  config.seed = 11;
  CompetitionEnvironment env(config);
  int jammed = 0, survived = 0;
  for (int slot = 0; slot < 40000; ++slot) {
    const EnvStep step = env.step(env.current_channel(), 9);
    if (step.outcome != SlotOutcome::kClear) {
      ++jammed;
      if (step.outcome == SlotOutcome::kJammedSurvived) ++survived;
      // Escape so the statistic is not dominated by dwell slots.
      env.step((env.current_channel() + 7) % 16, 9);
    }
  }
  ASSERT_GT(jammed, 2000);
  EXPECT_NEAR(static_cast<double>(survived) / jammed, 0.5, 0.03);
}

TEST(Environment, StayHazardMatchesKernel) {
  // Empirical check of Eq. (6): conditioned on the hidden state n, staying
  // is jammed with probability 1/(4−n).
  auto config = EnvironmentConfig::defaults();
  config.seed = 13;
  CompetitionEnvironment env(config);
  std::map<int, std::pair<int, int>> jams_by_n;  // n → (jammed, total)
  for (int slot = 0; slot < 60000; ++slot) {
    if (env.hidden_kind() == CompetitionEnvironment::HiddenKind::kCounting) {
      const int n = env.hidden_n();
      const EnvStep step = env.step(env.current_channel(), 0);
      auto& [jammed, total] = jams_by_n[n];
      ++total;
      if (step.outcome != SlotOutcome::kClear) ++jammed;
    } else {
      env.step((env.current_channel() + 5) % 16, 0);  // escape the group
    }
  }
  for (int n = 1; n <= 3; ++n) {
    const auto [jammed, total] = jams_by_n[n];
    ASSERT_GT(total, 1000) << "n = " << n;
    EXPECT_NEAR(static_cast<double>(jammed) / total, 1.0 / (4 - n), 0.03)
        << "n = " << n;
  }
}

TEST(Environment, HopRiskMatchesKernel) {
  // Empirical check of Eqs. (9)–(11): hopping from state n is jammed with
  // probability (4−n−1)/((4−1)(4−n)).
  auto config = EnvironmentConfig::defaults();
  config.seed = 17;
  CompetitionEnvironment env(config);
  std::map<int, std::pair<int, int>> jams_by_n;
  for (int slot = 0; slot < 60000; ++slot) {
    if (env.hidden_kind() == CompetitionEnvironment::HiddenKind::kCounting) {
      const int n = env.hidden_n();
      // +5 always lands in a different 4-channel group (a *real* hop).
      const EnvStep step = env.step((env.current_channel() + 5) % 16, 0);
      auto& [jammed, total] = jams_by_n[n];
      ++total;
      if (step.outcome != SlotOutcome::kClear) ++jammed;
    } else {
      env.step((env.current_channel() + 5) % 16, 0);
    }
  }
  for (int n = 1; n <= 3; ++n) {
    const auto [jammed, total] = jams_by_n[n];
    if (total < 500) continue;
    const double expected = (4.0 - n - 1.0) / (3.0 * (4.0 - n));
    EXPECT_NEAR(static_cast<double>(jammed) / total, expected, 0.03)
        << "n = " << n;
  }
}

TEST(Environment, SweepCycleTwoHasOnlyOneCountingState) {
  auto config = EnvironmentConfig::defaults();
  config.num_channels = 8;
  config.channels_per_sweep = 4;  // cycle = 2
  CompetitionEnvironment env(config);
  for (int slot = 0; slot < 200; ++slot) {
    env.step(env.current_channel(), 0);
    if (env.hidden_kind() == CompetitionEnvironment::HiddenKind::kCounting) {
      EXPECT_EQ(env.hidden_n(), 1);
    }
  }
}

TEST(Environment, RejectsInvalidArguments) {
  CompetitionEnvironment env(EnvironmentConfig::defaults());
  EXPECT_THROW(env.step(-1, 0), CheckFailure);
  EXPECT_THROW(env.step(16, 0), CheckFailure);
  EXPECT_THROW(env.step(0, 10), CheckFailure);
}

TEST(Environment, ResetRestoresInitialState) {
  CompetitionEnvironment env(EnvironmentConfig::defaults());
  for (int i = 0; i < 20; ++i) env.step(i % 16, 3);
  env.reset();
  EXPECT_EQ(env.current_channel(), 0);
  EXPECT_EQ(env.hidden_n(), 1);
}

// ------------------------------------------------------------- metrics ----

TEST(Metrics, HandComputedRates) {
  MetricsAccumulator acc;
  // 4 slots: (success, fh, pc): (1,1,0), (0,1,1), (1,0,1), (1,0,0).
  acc.record(true, true, false, -10.0);
  acc.record(false, true, true, -160.0);
  acc.record(true, false, true, -15.0);
  acc.record(true, false, false, -6.0);
  const auto r = acc.report();
  EXPECT_DOUBLE_EQ(r.st, 0.75);
  EXPECT_DOUBLE_EQ(r.ah, 0.5);
  EXPECT_DOUBLE_EQ(r.ap, 0.5);
  EXPECT_DOUBLE_EQ(r.sh, 0.5);   // one of the two FH slots succeeded
  EXPECT_DOUBLE_EQ(r.sp, 0.5);   // one of the two PC slots succeeded
  EXPECT_DOUBLE_EQ(r.mean_reward, (-10.0 - 160.0 - 15.0 - 6.0) / 4.0);
  EXPECT_EQ(r.slots, 4u);
}

TEST(Metrics, EnvStepOverloadDerivesPcFromPowerIndex) {
  MetricsAccumulator acc;
  EnvStep step;
  step.success = true;
  step.hopped = false;
  step.reward = -6.0;
  acc.record(step, 0);  // base power: no PC
  acc.record(step, 3);  // raised power: PC
  const auto r = acc.report();
  EXPECT_DOUBLE_EQ(r.ap, 0.5);
}

TEST(Metrics, EmptyReportIsZero) {
  MetricsAccumulator acc;
  const auto r = acc.report();
  EXPECT_DOUBLE_EQ(r.st, 0.0);
  EXPECT_DOUBLE_EQ(r.sh, 0.0);
  EXPECT_EQ(r.slots, 0u);
}

TEST(Metrics, ResetClears) {
  MetricsAccumulator acc;
  acc.record(true, true, true, -1.0);
  acc.reset();
  EXPECT_EQ(acc.report().slots, 0u);
}

TEST(SlotOutcome, Names) {
  EXPECT_STREQ(to_string(SlotOutcome::kClear), "clear");
  EXPECT_STREQ(to_string(SlotOutcome::kJammedSurvived), "jammed-survived");
  EXPECT_STREQ(to_string(SlotOutcome::kJammedFailed), "jammed-failed");
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

// ------------------------------------------------------ energy coverage ----

TEST(EnergyCoverage, RxOnlySlot) {
  core::EnergyModelConfig config;
  config.tx_duty = 0.0;  // pure listening
  config.rx_power_mw = 12.0;
  core::EnergyAccumulator acc(config);
  acc.record_slot(15.0, 2.0, false);
  EXPECT_DOUBLE_EQ(acc.report().tx_mj, 0.0);
  EXPECT_NEAR(acc.report().total_mj, 24.0, 1e-9);
}

// ------------------------------------------------------ group-aware hops ----

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
}  // namespace ctj::core
