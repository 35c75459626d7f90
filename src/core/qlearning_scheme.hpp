// Tabular Q-learning anti-jamming scheme — the classic-RL baseline the paper
// contrasts the DQN against (Sec. III.C). Same observation window and action
// decoding as DqnScheme, but the policy lives in a discretized Q table whose
// size explodes with the history length — the "curse of
// high-dimensionality" the paper cites.
#pragma once

#include "core/policy_shell.hpp"
#include "core/scheme.hpp"
#include "rl/qlearning.hpp"

namespace ctj::core {

class QLearningScheme : public AntiJammingScheme {
 public:
  struct Config {
    int num_channels = 16;
    std::size_t num_power_levels = 10;
    std::size_t history = 4;  // I
    std::size_t bins_per_dim = 3;
    double learning_rate = 0.1;
    double gamma = 0.9;
    double epsilon_start = 1.0;
    double epsilon_end = 0.05;
    std::size_t epsilon_decay_steps = 4000;
    double deploy_epsilon = 0.05;
    std::uint64_t seed = 27;
  };

  explicit QLearningScheme(const Config& config);

  SchemeDecision decide() override;
  void feedback(const SlotFeedback& feedback) override;
  std::string name() const override { return "QL FH"; }
  void reset() override;

  void set_training(bool training) { shell_.set_training(training); }
  rl::QLearningAgent& agent() { return agent_; }

  /// Checkpoint-format serialization (the serve layer's QLSTATE payload): a
  /// digest of the Config, the PolicyShell state block (training flag,
  /// deploy RNG, observation window, pending transition) and the whole
  /// agent (RNG, steps, sorted Q table).
  /// load_state rejects a payload whose Config digest differs from this
  /// scheme's (io::IoError kStateMismatch); the scheme is unchanged on any
  /// failure.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  Config config_;
  rl::QLearningAgent agent_;
  PolicyShell shell_;
};

}  // namespace ctj::core
