// Tests for the anti-jamming schemes: the Passive-FH and Random-FH baselines,
// the MDP oracle, and the DQN scheme end-to-end (training on the competition
// environment and beating the baselines, as the paper reports), the tabular
// Q-learning scheme, and the DQN scheme's policy save/load.
#include <gtest/gtest.h>

#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "core/mdp_scheme.hpp"
#include "core/passive_fh.hpp"
#include "core/qlearning_scheme.hpp"
#include "core/random_fh.hpp"
#include "core/rl_fh.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"

namespace ctj::core {
namespace {

// ------------------------------------------------------------- baselines ----

TEST(PassiveFh, StaysUntilJammed) {
  PassiveFhScheme::Config config;
  PassiveFhScheme scheme(config);
  const auto first = scheme.decide();
  // Report clean slots: the scheme must not move.
  for (int i = 0; i < 5; ++i) {
    SlotFeedback fb;
    fb.success = true;
    fb.channel = first.channel;
    scheme.feedback(fb);
    const auto d = scheme.decide();
    EXPECT_EQ(d.channel, first.channel);
    EXPECT_EQ(d.power_index, first.power_index);
  }
}

TEST(PassiveFh, HopsAfterDetectorFires) {
  PassiveFhScheme::Config config;
  config.detector_window = 2;
  config.detector_threshold = 0.5;
  PassiveFhScheme scheme(config);
  const auto first = scheme.decide();
  SlotFeedback fb;
  fb.success = false;
  fb.channel = first.channel;
  scheme.feedback(fb);
  scheme.feedback(fb);
  const auto d = scheme.decide();
  EXPECT_NE(d.channel, first.channel);
}

TEST(PassiveFh, EscalatesPowerAfterRepeatedFailedHops) {
  PassiveFhScheme::Config config;
  config.detector_window = 1;
  config.detector_threshold = 1.0;
  config.escalate_after_failed_hops = 2;
  PassiveFhScheme scheme(config);
  std::size_t initial_power = scheme.decide().power_index;
  // Keep failing: every slot triggers a hop, hops keep failing.
  std::size_t final_power = initial_power;
  for (int i = 0; i < 12; ++i) {
    SlotFeedback fb;
    fb.success = false;
    scheme.feedback(fb);
    final_power = scheme.decide().power_index;
  }
  EXPECT_GT(final_power, initial_power);
}

TEST(RandomFh, HopFrequencyMatchesProbability) {
  RandomFhScheme::Config config;
  config.hop_probability = 0.5;
  RandomFhScheme scheme(config);
  int prev = scheme.decide().channel;
  int hops = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto d = scheme.decide();
    if (d.channel != prev) ++hops;
    prev = d.channel;
  }
  EXPECT_NEAR(static_cast<double>(hops) / n, 0.5, 0.03);
}

TEST(RandomFh, PcSlotsPickRandomPower) {
  RandomFhScheme::Config config;
  config.hop_probability = 0.0;  // always PC
  RandomFhScheme scheme(config);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(scheme.decide().power_index);
  EXPECT_EQ(seen.size(), config.num_power_levels);
}

// ------------------------------------------------------------ MDP oracle ----

TEST(MdpOracle, ThresholdPolicyAgainstEnvironment) {
  MdpOracleScheme::Config config;
  config.params = mdp::AntijamParams::defaults();
  MdpOracleScheme oracle(config);
  EXPECT_GE(oracle.threshold(), 1);
  EXPECT_LE(oracle.threshold(), 4);

  auto env_config = EnvironmentConfig::defaults();
  env_config.seed = 51;
  CompetitionEnvironment env(env_config);
  const auto metrics = evaluate(oracle, env, 20000);
  // The paper's effectiveness bar: ST >= 75 % beats the 25 % random-jamming
  // baseline rate (Sec. IV.C.1).
  EXPECT_GE(metrics.st, 0.70);
}

TEST(MdpOracle, TracksHiddenStateConsistently) {
  MdpOracleScheme::Config config;
  MdpOracleScheme oracle(config);
  // Clean successes advance the internal counter; a jam resets to T_J/J.
  SlotFeedback fb;
  fb.success = true;
  fb.jammed = false;
  oracle.decide();
  oracle.feedback(fb);
  oracle.decide();
  fb.success = false;
  oracle.feedback(fb);  // now in J
  // From J the optimal action is always to hop (Case 6 dominates).
  const auto d = oracle.decide();
  (void)d;  // the hop target is random; correctness is checked statistically
  SUCCEED();
}

// ------------------------------------------------------------ DQN scheme ----

DqnScheme::Config small_scheme(std::uint64_t seed) {
  DqnScheme::Config c;
  c.num_channels = 16;
  c.num_power_levels = 10;
  c.history = 4;
  c.hidden = {32, 32};
  c.learning_rate = 1.5e-3;
  c.epsilon_decay_steps = 3000;
  c.epsilon_end = 0.05;
  c.seed = seed;
  return c;
}

TEST(DqnScheme, ObservationEncodesHistory) {
  DqnScheme scheme(small_scheme(1));
  EXPECT_EQ(scheme.observation().size(), 12u);  // 3 × I, I = 4
  const auto d = scheme.decide();
  SlotFeedback fb;
  fb.success = true;
  fb.channel = d.channel;
  fb.power_index = d.power_index;
  scheme.feedback(fb);
  const auto obs = scheme.observation();
  // The newest record sits at the tail: success flag must be 1.
  EXPECT_DOUBLE_EQ(obs[9], 1.0);
  EXPECT_NEAR(obs[10], d.channel / 15.0, 1e-9);
  EXPECT_NEAR(obs[11], d.power_index / 9.0, 1e-9);
}

TEST(DqnScheme, ActionDecodesToChannelAndPower) {
  DqnScheme scheme(small_scheme(2));
  scheme.set_training(false);
  const auto d = scheme.decide();
  EXPECT_GE(d.channel, 0);
  EXPECT_LT(d.channel, 16);
  EXPECT_LT(d.power_index, 10u);
}

TEST(DqnScheme, DeploymentModeDoesNotLearn) {
  DqnScheme scheme(small_scheme(3));
  scheme.set_training(false);
  const auto d = scheme.decide();
  SlotFeedback fb;
  fb.success = true;
  fb.channel = d.channel;
  fb.power_index = d.power_index;
  scheme.feedback(fb);
  EXPECT_EQ(scheme.agent().steps(), 0u);
}

TEST(DqnScheme, DecisionTimeIsNineMilliseconds) {
  DqnScheme scheme(small_scheme(4));
  EXPECT_DOUBLE_EQ(scheme.decision_time_s(), 9e-3);
}

TEST(Trainer, RunsAndReportsStats) {
  auto env_config = EnvironmentConfig::defaults();
  CompetitionEnvironment env(env_config);
  DqnScheme scheme(small_scheme(5));
  TrainerConfig config;
  config.max_slots = 500;
  const auto stats = train(scheme, env, config);
  EXPECT_EQ(stats.slots_trained, 500u);
  EXPECT_FALSE(stats.early_stopped);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_EQ(scheme.agent().steps(), 500u);
}

TEST(Trainer, EarlyStopsOnRewardTarget) {
  auto env_config = EnvironmentConfig::defaults();
  CompetitionEnvironment env(env_config);
  DqnScheme scheme(small_scheme(6));
  TrainerConfig config;
  config.max_slots = 100000;
  config.reward_window = 50;
  config.target_mean_reward = -1000.0;  // trivially reachable
  const auto stats = train(scheme, env, config);
  EXPECT_TRUE(stats.early_stopped);
  EXPECT_LT(stats.slots_trained, 200u);
}

// The headline integration test: trained RL FH beats the baselines on the
// default max-power scenario (Fig. 11(a) ordering at the slot level).
TEST(Integration, RlBeatsBaselinesAfterTraining) {
  auto env_config = EnvironmentConfig::defaults();
  env_config.mode = JammerPowerMode::kMaxPower;

  // Baselines.
  PassiveFhScheme::Config passive_config;
  PassiveFhScheme passive(passive_config);
  env_config.seed = 101;
  CompetitionEnvironment env_passive(env_config);
  const auto m_passive = evaluate(passive, env_passive, 12000);

  RandomFhScheme::Config random_config;
  RandomFhScheme random_scheme(random_config);
  env_config.seed = 101;
  CompetitionEnvironment env_random(env_config);
  const auto m_random = evaluate(random_scheme, env_random, 12000);

  // RL FH.
  RlExperimentConfig rl;
  rl.env = env_config;
  rl.env.seed = 33;
  rl.scheme = small_scheme(7);
  rl.train_slots = 15000;
  rl.eval_slots = 12000;
  rl.eval_seed = 101;
  const auto rl_result = run_rl_experiment(rl);

  // Ordering per the paper: RL > random > passive.
  EXPECT_GT(m_random.st, m_passive.st);
  EXPECT_GT(rl_result.metrics.st, m_passive.st + 0.05);
  EXPECT_GT(rl_result.metrics.st, m_random.st);
  // The paper's effectiveness bar for the trained scheme.
  EXPECT_GE(rl_result.metrics.st, 0.6);
}

TEST(Evaluate, MetricsSlotsMatchRequest) {
  RandomFhScheme scheme{RandomFhScheme::Config{}};
  CompetitionEnvironment env(EnvironmentConfig::defaults());
  const auto metrics = evaluate(scheme, env, 1234);
  EXPECT_EQ(metrics.slots, 1234u);
}

// ---------------------------------------------------- Q-learning scheme ----

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

// --------------------------------------------------- DQN scheme policy I/O ----

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

}  // namespace
}  // namespace ctj::core
