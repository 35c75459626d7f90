// Vectorized rollout engine: replica trajectories must equal standalone
// environments seed for seed, ObservationWindows must reproduce DqnScheme's
// sliding window, and the batched agent/eval/train paths must match their
// sequential counterparts where exactness is promised.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "core/vector_env.hpp"

namespace ctj::core {
namespace {

EnvironmentConfig test_env_config(std::uint64_t seed) {
  EnvironmentConfig config = EnvironmentConfig::defaults();
  config.seed = seed;
  return config;
}

TEST(VectorEnv, ReplicasMatchSequentialTrajectoriesSeedForSeed) {
  const std::size_t R = 4, slots = 400;
  const EnvironmentConfig base = test_env_config(71);
  VectorEnv venv(base, R);
  ASSERT_EQ(venv.size(), R);

  std::vector<CompetitionEnvironment> solo;
  for (std::size_t r = 0; r < R; ++r) {
    EnvironmentConfig c = base;
    c.seed = base.seed + r;
    solo.emplace_back(c);
  }

  // A deterministic per-replica action schedule (any policy works — the
  // claim is about the environment dynamics, not the agent).
  Rng action_rng(5);
  std::vector<int> channels(R);
  std::vector<std::size_t> powers(R);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    for (std::size_t r = 0; r < R; ++r) {
      channels[r] = action_rng.uniform_int(0, base.num_channels - 1);
      powers[r] = action_rng.index(base.num_power_levels());
    }
    venv.step(channels, powers);
    for (std::size_t r = 0; r < R; ++r) {
      const EnvStep expect = solo[r].step(channels[r], powers[r]);
      EXPECT_EQ(venv.rewards()[r], expect.reward) << "slot " << slot;
      EXPECT_EQ(venv.successes()[r] != 0, expect.success);
      EXPECT_EQ(venv.jammed()[r] != 0, expect.outcome != SlotOutcome::kClear);
      EXPECT_EQ(venv.hopped()[r] != 0, expect.hopped);
      EXPECT_EQ(venv.channels()[r], expect.channel);
      EXPECT_EQ(venv.outcomes()[r], expect.outcome);
    }
  }
}

TEST(ObservationWindows, MatchesDqnSchemeObservation) {
  DqnScheme::Config sc;
  sc.training = false;
  sc.deploy_epsilon = 0.0;
  DqnScheme scheme(sc);
  ObservationWindows windows(2, sc.history, sc.num_channels,
                             sc.num_power_levels);

  // Initial histories are all-zero on both sides.
  const auto initial = scheme.observation();
  const auto row0 = windows.row(0);
  ASSERT_EQ(initial.size(), row0.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    EXPECT_EQ(initial[i], row0[i]);
  }

  Rng rng(9);
  for (int slot = 0; slot < 30; ++slot) {
    const bool success = rng.bernoulli(0.6);
    const int channel = rng.uniform_int(0, sc.num_channels - 1);
    const std::size_t power = rng.index(sc.num_power_levels);

    SlotFeedback fb;
    fb.success = success;
    fb.channel = channel;
    fb.power_index = power;
    scheme.feedback(fb);
    windows.push(0, success, channel, power);

    const auto obs = scheme.observation();
    const auto row = windows.row(0);
    ASSERT_EQ(obs.size(), row.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
      EXPECT_EQ(obs[i], row[i]) << "slot " << slot << " elem " << i;
    }
  }
  // Replica 1 was never pushed and must still hold the zero history.
  for (double v : windows.row(1)) EXPECT_EQ(v, 0.0);
}

TEST(BatchedInference, ActGreedyBatchMatchesPerStateActGreedy) {
  rl::DqnConfig config;
  config.seed = 3;
  rl::DqnAgent agent(config);
  const std::size_t R = 7;
  Rng rng(21);
  rl::Matrix states(R, config.state_dim);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states.data()[i] = rng.uniform();
  }

  rl::Matrix q_batch;
  agent.q_values_batch(states, q_batch);
  std::vector<std::size_t> actions(R);
  agent.act_greedy_batch(states, actions);
  for (std::size_t r = 0; r < R; ++r) {
    const auto state = states.row_span(r);
    EXPECT_EQ(actions[r], agent.act_greedy(state)) << "replica " << r;
    const std::vector<double> q = agent.q_values(state);
    ASSERT_EQ(q.size(), config.num_actions);
    for (std::size_t a = 0; a < q.size(); ++a) {
      EXPECT_EQ(q[a], q_batch.at(r, a)) << "replica " << r << " action " << a;
    }
  }
}

TEST(BatchedEvaluate, SingleReplicaGreedyMatchesSequentialEvaluate) {
  // With the scheme seeded like the environment, DqnScheme's deploy RNG and
  // evaluate_batched's exploration stream both start at seed ^ 0xD09 and
  // draw in the same order (a bernoulli per slot, an index on explore), so
  // the match is exact at any deploy ε, the default 0.05 included.
  const EnvironmentConfig env_config = test_env_config(97);
  const std::size_t slots = 600;
  for (const double eps : {0.0, 0.05, 0.3}) {
    SCOPED_TRACE(eps);
    DqnScheme::Config sc;
    sc.training = false;
    sc.deploy_epsilon = eps;
    sc.seed = env_config.seed;
    DqnScheme scheme(sc);

    CompetitionEnvironment env(env_config);
    scheme.reset();
    const MetricsReport sequential = evaluate(scheme, env, slots);

    scheme.reset();
    const MetricsReport batched =
        evaluate_batched(scheme, env_config, slots, 1);

    EXPECT_EQ(batched.slots, sequential.slots);
    EXPECT_EQ(batched.st, sequential.st);
    EXPECT_EQ(batched.ah, sequential.ah);
    EXPECT_EQ(batched.sh, sequential.sh);
    EXPECT_EQ(batched.ap, sequential.ap);
    EXPECT_EQ(batched.sp, sequential.sp);
    EXPECT_EQ(batched.mean_reward, sequential.mean_reward);
  }
}

TEST(BatchedEvaluate, MultiReplicaAggregatesIndependentRollouts) {
  DqnScheme::Config sc;
  sc.training = false;
  sc.deploy_epsilon = 0.0;
  sc.seed = 43;
  DqnScheme scheme(sc);

  const EnvironmentConfig base = test_env_config(131);
  const std::size_t R = 3, slots = 300;

  double success_total = 0.0, reward_total = 0.0;
  for (std::size_t r = 0; r < R; ++r) {
    EnvironmentConfig c = base;
    c.seed = base.seed + r;
    CompetitionEnvironment env(c);
    scheme.reset();
    const MetricsReport rep = evaluate(scheme, env, slots);
    success_total += rep.st * static_cast<double>(rep.slots);
    reward_total += rep.mean_reward * static_cast<double>(rep.slots);
  }

  scheme.reset();
  const MetricsReport batched = evaluate_batched(scheme, base, slots, R);
  EXPECT_EQ(batched.slots, R * slots);
  EXPECT_NEAR(batched.st * static_cast<double>(batched.slots), success_total,
              1e-9);
  EXPECT_NEAR(batched.mean_reward * static_cast<double>(batched.slots),
              reward_total, 1e-6);
}

TEST(BatchedTrain, SingleReplicaReproducesSequentialTrainer) {
  DqnScheme::Config sc;
  sc.seed = 77;
  const EnvironmentConfig env_config = test_env_config(303);

  TrainerConfig tc;
  tc.max_slots = 600;
  tc.reward_window = 100;

  DqnScheme sequential_scheme(sc);
  CompetitionEnvironment env(env_config);
  const TrainingStats sequential = train(sequential_scheme, env, tc);

  DqnScheme batched_scheme(sc);
  const TrainingStats batched =
      train_batched(batched_scheme, env_config, tc, 1);

  EXPECT_EQ(batched.slots_trained, sequential.slots_trained);
  EXPECT_EQ(batched.early_stopped, sequential.early_stopped);
  EXPECT_EQ(batched.final_mean_reward, sequential.final_mean_reward);

  // The learned networks must be bit-identical: probe Q-values on a state.
  std::vector<double> probe(sc.history * 3, 0.25);
  const auto q_seq = sequential_scheme.agent().q_values(probe);
  const auto q_bat = batched_scheme.agent().q_values(probe);
  ASSERT_EQ(q_seq.size(), q_bat.size());
  for (std::size_t a = 0; a < q_seq.size(); ++a) {
    EXPECT_EQ(q_seq[a], q_bat[a]) << "action " << a;
  }
}

TEST(BatchedTrain, MultiReplicaRunsAndCountsTransitions) {
  DqnScheme::Config sc;
  sc.seed = 79;
  const EnvironmentConfig env_config = test_env_config(307);

  TrainerConfig tc;
  tc.max_slots = 400;
  tc.reward_window = 100;

  DqnScheme scheme(sc);
  const TrainingStats stats = train_batched(scheme, env_config, tc, 4);
  EXPECT_EQ(stats.slots_trained, tc.max_slots);
  EXPECT_FALSE(stats.early_stopped);
  EXPECT_TRUE(std::isfinite(stats.final_mean_reward));
  EXPECT_GT(scheme.agent().steps(), 0u);
}

}  // namespace
}  // namespace ctj::core
