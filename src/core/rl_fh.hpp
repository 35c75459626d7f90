// RL FH — the paper's DQN-based hybrid anti-jamming scheme (Sec. III.C).
//
// The hub feeds the DQN an observation window of the last I slots, three
// observables per slot (success/failure, channel, power level — the indexes
// the victim can actually see), and reads out one of C×PL actions, i.e. a
// (channel, power level) pair that jointly encodes frequency hopping and
// power control.
#pragma once

#include "core/policy_shell.hpp"
#include "core/scheme.hpp"
#include "io/container.hpp"
#include "rl/dqn.hpp"

namespace ctj::core {

class DqnScheme : public AntiJammingScheme {
 public:
  struct Config {
    int num_channels = 16;
    std::size_t num_power_levels = 10;
    /// I: history slots encoded into the network input (3 × I neurons).
    std::size_t history = 8;
    /// true while learning; set false (or call set_training) to deploy the
    /// frozen policy, as the field experiments do.
    bool training = true;
    /// Exploration kept at deployment (Sec. III.C: "we choose the
    /// communication policy based on the ε-greedy algorithm") — it both
    /// avoids local maxima and randomizes hop targets so the sweeping
    /// jammer cannot track a deterministic channel pattern.
    double deploy_epsilon = 0.05;
    /// Overrides applied to the derived DqnConfig.
    double learning_rate = 1e-3;
    double gamma = 0.9;
    double epsilon_start = 1.0;
    double epsilon_end = 0.05;
    std::size_t epsilon_decay_steps = 4000;
    std::vector<std::size_t> hidden = {45, 45};
    /// Double-DQN bootstrap (ablation; the paper uses vanilla DQN).
    bool double_dqn = false;
    /// Gradient steps between hard target-network syncs (ignored when
    /// target_tau > 0).
    std::size_t target_sync_interval = 250;
    /// Polyak soft target update coefficient; 0 keeps the hard sync.
    double target_tau = 0.0;
    std::uint64_t seed = 23;
  };

  explicit DqnScheme(const Config& config);

  SchemeDecision decide() override;
  void feedback(const SlotFeedback& feedback) override;
  std::string name() const override { return "RL FH"; }
  double decision_time_s() const override { return 9.0e-3; }
  void reset() override;

  void set_training(bool training) { shell_.set_training(training); }
  bool training() const { return shell_.training(); }

  /// Adjust the deployed exploration rate (for ablations).
  void set_deploy_epsilon(double epsilon);
  double deploy_epsilon() const { return config_.deploy_epsilon; }

  rl::DqnAgent& agent() { return agent_; }
  const rl::DqnAgent& agent() const { return agent_; }

  /// The scheme configuration (batched rollout drivers derive window and
  /// action-space dimensions from it).
  const Config& config() const { return config_; }

  /// The current 3×I observation vector (exposed for tests).
  std::vector<double> observation() const;

  /// Write the scheme's full state into a CTJS container: its Config
  /// (SCHMCFG, so a matching scheme can be reconstructed from the file
  /// alone), the PolicyShell state block (SCHMST: window, pending
  /// transition, deploy RNG), and the whole agent (networks, optimizer,
  /// replay, RNG, counters).
  void save_state(io::ContainerWriter& out) const;

  /// Restore a state written by save_state(). The stored Config must equal
  /// this scheme's (throws io::IoError kStateMismatch otherwise); on any
  /// failure the scheme is unchanged.
  void load_state(const io::ContainerReader& in);

  /// Decode the scheme Config stored in a checkpoint (to construct a
  /// matching DqnScheme before load_state, e.g. `ctj_cli eval --model`).
  static Config read_config(const io::ContainerReader& in);

 private:
  static rl::DqnConfig make_dqn_config(const Config& config);

  Config config_;
  rl::DqnAgent agent_;
  PolicyShell shell_;
};

}  // namespace ctj::core
