// Slot-level experiment harness shared by the simulation benches (Figs. 6–8)
// and the examples: evaluate any scheme against the competition environment
// and aggregate the Table-I metrics.
#pragma once

#include <cstddef>

#include "core/environment.hpp"
#include "core/metrics.hpp"
#include "core/rl_fh.hpp"
#include "core/scheme.hpp"
#include "core/trainer.hpp"

namespace ctj::core {

/// Run `slots` evaluation slots of an already-configured scheme.
MetricsReport evaluate(AntiJammingScheme& scheme, CompetitionEnvironment& env,
                       std::size_t slots);

/// Batched evaluation of a frozen DQN policy: `replicas` VectorEnv replicas
/// (replica r seeded env_config.seed + r) stepped in lockstep for
/// `slots_per_replica` slots each, with one batched forward pass per slot
/// instead of a batch-1 forward per replica. Metrics aggregate all
/// replicas' slots. With deploy_epsilon == 0 and replicas == 1 this
/// reproduces evaluate() on an environment built from env_config exactly;
/// with exploration enabled the batched path draws from its own RNG stream
/// (seeded from env_config.seed), so it matches evaluate() statistically
/// but not slot for slot.
MetricsReport evaluate_batched(const DqnScheme& scheme,
                               const EnvironmentConfig& env_config,
                               std::size_t slots_per_replica,
                               std::size_t replicas);

/// End-to-end RL experiment: train a fresh DQN on the environment, then
/// freeze it and evaluate — one point of a Fig. 6/7/8 sweep.
struct RlExperimentConfig {
  EnvironmentConfig env;
  DqnScheme::Config scheme;
  std::size_t train_slots = 30000;
  std::size_t eval_slots = 20000;
  std::uint64_t eval_seed = 97;

  /// Optional periodic checkpoint/resume for the training phase (passed
  /// through to TrainerConfig::checkpoint — see CheckpointOptions).
  std::optional<CheckpointOptions> checkpoint;

  /// Derive consistent scheme dimensions from the environment config.
  void sync_dimensions();
};

struct RlExperimentResult {
  MetricsReport metrics;
  TrainingStats training;
};

RlExperimentResult run_rl_experiment(RlExperimentConfig config);

}  // namespace ctj::core
