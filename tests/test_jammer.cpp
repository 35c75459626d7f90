// Tests for the behavioural sweeping cross-technology jammer, the adaptive
// pattern-tracking jammer, the stealthiness analysis and the victim-side
// error-rate detector.
#include <gtest/gtest.h>

#include <set>

#include "common/stats.hpp"
#include "jammer/adaptive_jammer.hpp"
#include "jammer/detector.hpp"
#include "jammer/stealth.hpp"
#include "jammer/sweep_jammer.hpp"

namespace ctj::jammer {
namespace {

TEST(SweepJammerConfig, DefaultsMatchPaper) {
  const auto c = SweepJammerConfig::defaults();
  EXPECT_EQ(c.num_channels, 16);
  EXPECT_EQ(c.channels_per_sweep, 4);
  EXPECT_EQ(c.sweep_cycle(), 4);
  EXPECT_EQ(c.power_levels.size(), 10u);
}

TEST(SweepJammerConfig, SweepCycleCeiling) {
  SweepJammerConfig c = SweepJammerConfig::defaults();
  c.num_channels = 10;
  c.channels_per_sweep = 4;
  EXPECT_EQ(c.sweep_cycle(), 3);  // ⌈10/4⌉
}

TEST(SweepJammer, FindsStationaryVictimWithinOneCycle) {
  // A victim that never hops must be found within ⌈K/m⌉ = 4 slots.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SweepJammer jammer(SweepJammerConfig::defaults(), seed);
    int slots_to_find = 0;
    for (int slot = 1; slot <= 4; ++slot) {
      if (jammer.step(5).hit) {
        slots_to_find = slot;
        break;
      }
    }
    EXPECT_GE(slots_to_find, 1) << "seed " << seed;
    EXPECT_LE(slots_to_find, 4) << "seed " << seed;
  }
}

TEST(SweepJammer, LocksOnAndKeepsJamming) {
  SweepJammer jammer(SweepJammerConfig::defaults(), 3);
  // Force discovery.
  while (!jammer.step(7).hit) {
  }
  EXPECT_TRUE(jammer.locked());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(jammer.step(7).hit);
  }
}

TEST(SweepJammer, ResumesSweepWhenVictimLeaves) {
  SweepJammer jammer(SweepJammerConfig::defaults(), 4);
  while (!jammer.step(7).hit) {
  }
  EXPECT_TRUE(jammer.locked());
  // Victim hops far away (different group): the jammer must unlock.
  const auto report = jammer.step(12);
  EXPECT_FALSE(report.hit && jammer.locked_channel() == 7);
  // Eventually it finds the victim again.
  bool found = false;
  for (int i = 0; i < 4; ++i) {
    if (jammer.step(12).hit) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SweepJammer, StaysLockedWhenVictimMovesWithinGroup) {
  // The jammer's 20 MHz emission covers the whole 4-channel group: hopping
  // inside the group does not escape it.
  SweepJammer jammer(SweepJammerConfig::defaults(), 5);
  while (!jammer.step(4).hit) {
  }
  EXPECT_TRUE(jammer.step(5).hit);  // channels 4..7 share a group
  EXPECT_TRUE(jammer.step(6).hit);
}

TEST(SweepJammer, HazardRateMatchesMdpModel) {
  // Statistical check of the 1/(N−n) discovery hazard: over many fresh
  // cycles, a stationary victim is found in slot 1, 2, 3, 4 with equal
  // probability 1/4 (uniform random sweep order).
  std::vector<int> found_at(5, 0);
  SweepJammerConfig config = SweepJammerConfig::defaults();
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    SweepJammer jammer(config, seed);
    for (int slot = 1; slot <= 4; ++slot) {
      if (jammer.step(9).hit) {
        ++found_at[static_cast<std::size_t>(slot)];
        break;
      }
    }
  }
  for (int slot = 1; slot <= 4; ++slot) {
    EXPECT_NEAR(found_at[static_cast<std::size_t>(slot)] / 4000.0, 0.25, 0.03)
        << "slot " << slot;
  }
}

TEST(SweepJammer, MaxPowerModeAlwaysTop) {
  SweepJammerConfig config = SweepJammerConfig::defaults();
  config.mode = JammerPowerMode::kMaxPower;
  SweepJammer jammer(config, 6);
  while (!jammer.step(2).hit) {
  }
  for (int i = 0; i < 20; ++i) {
    const auto report = jammer.step(2);
    ASSERT_TRUE(report.hit);
    EXPECT_DOUBLE_EQ(report.power, 20.0);
  }
}

TEST(SweepJammer, RandomPowerModeSpansLevels) {
  SweepJammerConfig config = SweepJammerConfig::defaults();
  config.mode = JammerPowerMode::kRandomPower;
  SweepJammer jammer(config, 7);
  while (!jammer.step(2).hit) {
  }
  std::set<double> seen;
  for (int i = 0; i < 300; ++i) {
    const auto report = jammer.step(2);
    ASSERT_TRUE(report.hit);
    seen.insert(report.power);
  }
  EXPECT_EQ(seen.size(), 10u);  // all levels 11..20 appear
  EXPECT_EQ(*seen.begin(), 11.0);
  EXPECT_EQ(*seen.rbegin(), 20.0);
}

TEST(SweepJammer, ResetRestartsSweep) {
  SweepJammer jammer(SweepJammerConfig::defaults(), 8);
  while (!jammer.step(3).hit) {
  }
  EXPECT_TRUE(jammer.locked());
  jammer.reset();
  EXPECT_FALSE(jammer.locked());
}

TEST(SweepJammer, RejectsBadConfig) {
  SweepJammerConfig config = SweepJammerConfig::defaults();
  config.power_levels.clear();
  EXPECT_THROW(SweepJammer(config, 1), CheckFailure);
  config = SweepJammerConfig::defaults();
  config.channels_per_sweep = 32;
  EXPECT_THROW(SweepJammer(config, 1), CheckFailure);
}

TEST(SweepJammer, SingleGroupNetworkIsAlwaysCovered) {
  // K == m boundary: one group covers the whole spectrum, so the
  // 1/(⌈K/m⌉ − 1) vacated-group-exclusion hazard would be ill-defined. The
  // jammer must keep sweeping the single group (never exclude it) and a
  // victim can never escape.
  SweepJammerConfig config = SweepJammerConfig::defaults();
  config.num_channels = 4;
  config.channels_per_sweep = 4;
  ASSERT_EQ(config.sweep_cycle(), 1);
  SweepJammer jammer(config, 11);
  EXPECT_TRUE(jammer.step(2).hit);  // the first slot finds it with certainty
  EXPECT_TRUE(jammer.locked());
  for (int ch = 0; ch < 4; ++ch) {
    EXPECT_TRUE(jammer.step(ch).hit);  // in-group hops cannot escape
    EXPECT_TRUE(jammer.locked());
  }
  jammer.reset();
  EXPECT_TRUE(jammer.step(0).hit);  // the refilled cycle is the only group
}

TEST(SweepJammer, TwoGroupEscapeRefindsWithCertainty) {
  // K == m + 1 boundary: two groups, the second holding a single channel.
  // After an escape the vacated group is excluded, so the post-escape
  // hazard is 1/(N − 1) = 1 — the next slot must re-find the victim, in
  // both escape directions, for every seed.
  SweepJammerConfig config = SweepJammerConfig::defaults();
  config.num_channels = 5;
  config.channels_per_sweep = 4;
  ASSERT_EQ(config.sweep_cycle(), 2);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SweepJammer jammer(config, seed);
    while (!jammer.step(1).hit) {
    }
    EXPECT_TRUE(jammer.locked()) << "seed " << seed;
    EXPECT_FALSE(jammer.step(4).hit) << "seed " << seed;  // escape slot safe
    EXPECT_FALSE(jammer.locked()) << "seed " << seed;
    EXPECT_TRUE(jammer.step(4).hit) << "seed " << seed;  // certain re-find
    EXPECT_FALSE(jammer.step(0).hit) << "seed " << seed;  // escape back
    EXPECT_TRUE(jammer.step(0).hit) << "seed " << seed;
  }
}

TEST(SweepJammer, RejectsOutOfRangeVictimChannel) {
  SweepJammer jammer(SweepJammerConfig::defaults(), 9);
  EXPECT_THROW(jammer.step(16), CheckFailure);
  EXPECT_THROW(jammer.step(-1), CheckFailure);
}

// ---------------------------------------------------------------- detector ----

TEST(Detector, TriggersAtThreshold) {
  ErrorRateDetector det(4, 0.5);
  det.record(false);
  det.record(false);
  EXPECT_FALSE(det.jammed());
  det.record(true);
  det.record(true);
  EXPECT_TRUE(det.jammed());  // 2/4 = 0.5 >= 0.5
}

TEST(Detector, SlidingWindowForgets) {
  ErrorRateDetector det(3, 0.9);
  det.record(true);
  det.record(true);
  det.record(true);
  EXPECT_TRUE(det.jammed());
  det.record(false);
  det.record(false);
  det.record(false);
  EXPECT_FALSE(det.jammed());
  EXPECT_DOUBLE_EQ(det.error_rate(), 0.0);
}

TEST(Detector, ResetClearsHistory) {
  ErrorRateDetector det(2, 0.5);
  det.record(true);
  det.record(true);
  EXPECT_TRUE(det.jammed());
  det.reset();
  EXPECT_FALSE(det.jammed());
  EXPECT_DOUBLE_EQ(det.error_rate(), 0.0);
}

TEST(Detector, SingleSlotWindowReactsImmediately) {
  ErrorRateDetector det(1, 1.0);
  det.record(true);
  EXPECT_TRUE(det.jammed());
  det.record(false);
  EXPECT_FALSE(det.jammed());
}

TEST(Detector, RejectsBadParameters) {
  EXPECT_THROW(ErrorRateDetector(0, 0.5), CheckFailure);
  EXPECT_THROW(ErrorRateDetector(4, 0.0), CheckFailure);
  EXPECT_THROW(ErrorRateDetector(4, 1.5), CheckFailure);
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

TEST(StealthCoverage, WindowlessConfigValidated) {
  jammer::StealthConfig config;
  config.idle_overlap_probability = 0.2;
  const auto r = jammer::analyze_detectability(
      channel::JammingSignalType::kEmuBee, true, config);
  EXPECT_DOUBLE_EQ(r.p_energy, 0.2);
  EXPECT_DOUBLE_EQ(r.p_attributable, 0.2);  // frame evidence never fires
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
}  // namespace ctj::jammer
