// DQN training loop on the slot-level competition environment (Sec. IV.B).
//
// The paper trains on >120 000 data blocks (each: channel, power, outcome)
// and stops early once the average reward reaches a threshold. We mirror
// that: train for up to `max_slots` environment slots, tracking the mean
// reward over a sliding window, with optional early stopping.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "core/environment.hpp"
#include "core/rl_fh.hpp"

namespace ctj::core {

/// Periodic checkpointing / resume for the training loops. A checkpoint is a
/// CTJS file holding the full scheme+agent state, the environment state
/// (every replica's RNG and hidden MDP state) and the trainer's own loop
/// progress, so a killed run resumed from it is bit-identical — same
/// weights, same RNG draws, same per-slot reward stream — to one that was
/// never interrupted.
struct CheckpointOptions {
  std::string path;
  /// Write a checkpoint every this many trained slots (0 = only at the end;
  /// the trainer always writes a final checkpoint when configured). The
  /// batched trainer rounds up to its next outer-loop boundary, since only
  /// there is the state between-transitions for every replica.
  std::size_t every_slots = 0;
  /// Resume from `path` when the file exists; start fresh when it does not
  /// (so a supervised job can simply always pass resume=true).
  bool resume = false;
};

struct TrainerConfig {
  std::size_t max_slots = 120000;
  /// Early-stop once the windowed mean reward reaches this value (the
  /// "training goal achieved in advance" of Sec. IV.B). Disabled if unset.
  std::optional<double> target_mean_reward;
  std::size_t reward_window = 2000;
  /// Periodic checkpoint/resume; disabled if unset. On resume, the stored
  /// reward_window and target_mean_reward must match this config (max_slots
  /// may differ — extending a finished run's budget is the point).
  std::optional<CheckpointOptions> checkpoint;
  /// Called after every trained slot with (global slot index, reward). The
  /// kill/resume tests use it to compare full reward streams.
  std::function<void(std::size_t, double)> on_slot;
};

struct TrainingStats {
  std::size_t slots_trained = 0;
  double final_mean_reward = 0.0;
  bool early_stopped = false;
  double wall_seconds = 0.0;
};

/// Run the scheme (in training mode) against the environment.
TrainingStats train(DqnScheme& scheme, CompetitionEnvironment& env,
                    const TrainerConfig& config);

/// Lockstep training on `replicas` environment replicas sharing the
/// scheme's agent: one batched ε-greedy forward per slot, then one observed
/// transition per replica (in replica order). config.max_slots counts
/// transitions summed over replicas, so the replay/optimizer work is
/// comparable to a sequential run of the same budget; the reward window and
/// early-stop test also run over the per-transition reward stream. With
/// replicas == 1 this consumes the agent's RNG in exactly the order the
/// sequential trainer does, and reproduces train() slot for slot provided
/// train() gets a fresh environment built from the same config and a fresh
/// scheme: train_batched always starts from new environments and all-zero
/// observation windows, while train() continues whatever environment state
/// and observation history it is handed.
TrainingStats train_batched(DqnScheme& scheme,
                            const EnvironmentConfig& env_config,
                            const TrainerConfig& config,
                            std::size_t replicas);

}  // namespace ctj::core
