#include "core/experiment.hpp"

#include <span>

#include "common/check.hpp"
#include "core/vector_env.hpp"

namespace ctj::core {

MetricsReport evaluate(AntiJammingScheme& scheme, CompetitionEnvironment& env,
                       std::size_t slots) {
  CTJ_CHECK(slots > 0);
  MetricsAccumulator metrics;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const SlotPlay play = play_slot(scheme, env);
    metrics.record(play.step, play.decision.power_index);
  }
  return metrics.report();
}

MetricsReport evaluate_batched(const DqnScheme& scheme,
                               const EnvironmentConfig& env_config,
                               std::size_t slots_per_replica,
                               std::size_t replicas) {
  CTJ_CHECK(slots_per_replica > 0);
  CTJ_CHECK_MSG(!scheme.training(),
                "evaluate_batched expects a frozen (deployed) policy");
  const rl::DqnAgent& agent = scheme.agent();
  const std::size_t num_actions = agent.config().num_actions;
  DqnRollout rollout(env_config, scheme.config(), replicas);
  // Deployed ε-greedy for the batch: one stream for all replicas, seeded
  // from the evaluation environment (not the scheme's deploy RNG, which
  // stays untouched — the scheme is const here).
  Rng explore_rng(env_config.seed ^ 0xD09ULL);
  const double eps = scheme.deploy_epsilon();

  MetricsAccumulator metrics;
  const auto act = [&](const rl::Matrix& states,
                       std::span<std::size_t> actions) {
    agent.act_greedy_batch(states, actions);
    for (std::size_t& action : actions) {
      if (eps > 0.0 && explore_rng.bernoulli(eps)) {
        action = explore_rng.index(num_actions);
      }
    }
  };
  const auto emit = [&](std::size_t r) {
    const VectorEnv& venv = rollout.venv();
    metrics.record(venv.successes()[r] != 0, venv.hopped()[r] != 0,
                   rollout.powers()[r] > 0, venv.rewards()[r]);
    return true;
  };
  for (std::size_t slot = 0; slot < slots_per_replica; ++slot) {
    rollout.step(act, emit);
  }
  return metrics.report();
}

void RlExperimentConfig::sync_dimensions() {
  scheme.num_channels = env.num_channels;
  scheme.num_power_levels = env.num_power_levels();
}

RlExperimentResult run_rl_experiment(RlExperimentConfig config) {
  config.sync_dimensions();

  CompetitionEnvironment train_env(config.env);
  DqnScheme scheme(config.scheme);

  TrainerConfig trainer;
  trainer.max_slots = config.train_slots;
  trainer.checkpoint = config.checkpoint;
  RlExperimentResult result;
  result.training = train(scheme, train_env, trainer);

  // Freeze the policy and evaluate on an independently seeded environment,
  // as the paper does when loading the trained network onto the hub.
  scheme.set_training(false);
  scheme.reset();
  EnvironmentConfig eval_config = config.env;
  eval_config.seed = config.eval_seed;
  CompetitionEnvironment eval_env(eval_config);
  result.metrics = evaluate(scheme, eval_env, config.eval_slots);
  return result;
}

}  // namespace ctj::core
