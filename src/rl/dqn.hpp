// Deep Q-Network agent (Sec. III.C).
//
// Matches the paper's design: a 4-layer fully-connected network whose input
// encodes the victim's last I slots (3 observables per slot: outcome, channel,
// power level) and whose C·PL outputs score every (channel, power) action;
// textbook ε-greedy exploration: with probability ε the agent explores
// uniformly over all C·PL actions (so the greedy action is played with total
// probability 1−ε+ε/(C·PL)); experience replay and a periodically
// synchronized target network stabilize learning. While the target network
// is frozen, the learner computes each replay row's bootstrap once and keeps
// it per slot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "io/container.hpp"
#include "rl/nn.hpp"
#include "rl/replay.hpp"

namespace ctj::rl {

struct DqnConfig {
  std::size_t state_dim = 24;    // 3 × I with I = 8 history slots
  std::size_t num_actions = 160; // C × PL = 16 channels × 10 power levels
  std::vector<std::size_t> hidden = {45, 45};  // ≈10.5 k parameters total
  double learning_rate = 1e-3;
  double gamma = 0.9;
  /// Rewards are scaled by this factor before entering the TD target
  /// (the paper's losses are O(100)).
  double reward_scale = 0.01;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 4000;
  std::size_t batch_size = 32;
  std::size_t replay_capacity = 20000;
  std::size_t min_replay_before_training = 256;
  std::size_t target_sync_interval = 250;
  /// Polyak soft target update: when > 0 the target network tracks the
  /// online network every gradient step (target ← (1−τ)·target + τ·online)
  /// and target_sync_interval's periodic hard copy is disabled. 0 keeps the
  /// paper's hard sync.
  double target_tau = 0.0;
  /// Double-DQN target (van Hasselt et al.): select the bootstrap action
  /// with the online network, evaluate it with the target network. Reduces
  /// the max-operator overestimation bias; off by default to match the
  /// paper's vanilla DQN.
  bool double_dqn = false;
  std::uint64_t seed = 1;
};

class DqnAgent {
 public:
  explicit DqnAgent(DqnConfig config);

  /// ε-greedy action for the current state (advances the exploration step).
  std::size_t act(std::span<const double> state);

  /// Greedy action (used at deployment, after training). Allocation-free:
  /// runs through reusable scratch buffers, so concurrent calls on the
  /// *same* agent are not safe (distinct agents remain independent — every
  /// sweep worker owns its agent exclusively).
  std::size_t act_greedy(std::span<const double> state) const;

  /// Q-value estimates for a state.
  std::vector<double> q_values(std::span<const double> state) const;

  /// Batched inference: Q-values for N states at once ([N × state_dim] in,
  /// [N × num_actions] out) — one forward pass instead of N batch-1 passes.
  /// Allocation-free once q_out and the internal scratch are warm.
  void q_values_batch(const Matrix& states, Matrix& q_out) const;

  /// Greedy actions for N states with a single forward pass. Row i of the
  /// result equals act_greedy(states.row_span(i)) exactly: batching changes
  /// neither the per-row accumulation order nor the argmax tie-breaking.
  void act_greedy_batch(const Matrix& states,
                        std::span<std::size_t> actions_out) const;

  /// Batched ε-greedy (vectorized rollouts): one forward pass, then a
  /// per-replica exploration draw at the current epsilon. Does not advance
  /// the exploration step — observe() does, once per transition.
  void act_batch(const Matrix& states, std::span<std::size_t> actions_out);

  /// Record a transition; trains when enough experience has accumulated.
  void observe(const Transition& transition);

  /// One gradient step on a sampled minibatch (no-op if the buffer is
  /// below the training threshold). Returns the minibatch mean Huber loss
  /// — the objective the clipped gradients actually optimize — if run.
  std::optional<double> train_step();

  /// One gradient step on a caller-assembled minibatch ([B × state_dim]
  /// states/next_states plus per-row action/reward/done): train_step()'s
  /// step after sampling, exposed as a test seam so a test can feed the
  /// learner rows it built itself. Bootstrap, taken-action online forward,
  /// fused TD-Huber kernel, Adam step, target update. The loss reads the
  /// online Q only at the taken actions, so the online output layer is
  /// evaluated and backpropagated at those entries alone. These rows have
  /// no replay slot, so every bootstrap is computed afresh. Returns the
  /// minibatch mean Huber loss.
  double train_on_batch(const Matrix& states, const Matrix& next_states,
                        std::span<const std::size_t> actions,
                        std::span<const double> rewards,
                        std::span<const std::uint8_t> dones);

  /// The ε-greedy exploration rate: linear decay over the observed
  /// transitions.
  double epsilon() const;
  std::size_t steps() const { return env_steps_; }
  std::size_t gradient_steps() const { return grad_steps_; }
  std::size_t param_count() const { return online_.param_count(); }

  /// Approximate serialized size in bytes if stored as 32-bit floats — the
  /// footprint the paper reports (10 664 floats ≈ 42.7 KB).
  std::size_t deployed_size_bytes() const { return param_count() * 4; }

  const DqnConfig& config() const { return config_; }
  const Mlp& online_network() const { return online_; }

  /// Write the agent's complete training state into a CTJS container:
  /// online/target networks, Adam moments + step counter, the replay ring
  /// and cursor, the exploration RNG stream, and the env/gradient step
  /// counters. Restoring it resumes training bit-identically.
  void save_state(io::ContainerWriter& out) const;

  /// Restore a state written by save_state(). Strong guarantee: every chunk
  /// is decoded and validated against this agent's configuration before any
  /// member is touched — on any io::IoError the agent is unchanged.
  void load_state(const io::ContainerReader& in);

  /// Like load_state(), but adopt the checkpoint's seed instead of
  /// requiring it to match this agent's configuration — the plug-in jammer
  /// restore path, where a saved adversary is revived inside a shell
  /// constructed with an arbitrary seed and the restored RNG stream
  /// replaces the construction stream wholesale.
  void load_state_adopt_seed(const io::ContainerReader& in);

  /// Load only the online network weights (deployment artifact path); the
  /// target network is synced to them. Same no-mutation-on-failure rule.
  void load_policy(const io::ContainerReader& in);

 private:
  void load_state_impl(const io::ContainerReader& in, bool adopt_seed);
  /// train_on_batch() with each row's replay slot (empty: no slots).
  double learn(const Matrix& states, const Matrix& next_states,
               std::span<const std::size_t> actions,
               std::span<const double> rewards,
               std::span<const std::uint8_t> dones,
               std::span<const std::size_t> slots);
  /// Fills next_v_ with each row's bootstrap value.
  void bootstrap(const Matrix& next_states,
                 std::span<const std::size_t> slots);

  DqnConfig config_;
  Rng rng_;
  Mlp online_;
  Mlp target_;
  AdamOptimizer optimizer_;
  ReplayRing replay_;
  std::size_t env_steps_ = 0;
  std::size_t grad_steps_ = 0;
  // Minibatch scratch reused across train_step() calls (the training loop
  // runs one step per slot — allocation churn here dominates the profile).
  Minibatch batch_;
  std::vector<double> q_taken_;  // online Q(s_i, a_i) of the minibatch
  std::vector<double> next_v_;   // bootstrap value of each row's s'_i
  std::vector<double> td_grad_;  // dLoss/dQ(s_i, a_i)
  Matrix next_q_;                // Q over all actions of the forwarded s'
  std::vector<std::size_t> next_act_;  // Double DQN: online argmax at s'_i
  std::vector<std::size_t> stale_rows_;  // rows whose bootstrap is computed
  Matrix stale_next_;            // their next states, compacted
  // The vanilla bootstrap max_a Q_target(s', a) of each replay slot's next
  // state, valid while its epoch equals target_epoch_. Every change to the
  // target network (sync, Polyak step, load) starts a new epoch, and
  // observe() clears the slot it overwrites, so a row is forwarded through
  // the target network at most once per epoch. Grows with the ring (never
  // to capacity up front) and is never serialized: a loaded agent starts a
  // new epoch. Double DQN is never cached — its online argmax moves with
  // every step.
  struct CachedBootstrap {
    double value = 0.0;
    std::uint64_t epoch = 0;  // 0: never valid
  };
  std::vector<CachedBootstrap> bootstrap_cache_;
  std::uint64_t target_epoch_ = 1;
  // Inference scratch for the (logically const) greedy/Q readout paths;
  // infer_a_/infer_b_ also carry the hidden layers of the learner's
  // next-state forwards. Keeps act_greedy and the learner step
  // allocation-free, under the same single-caller contract as the rest of
  // the agent.
  mutable Matrix infer_in_;
  mutable Matrix infer_q_;
  mutable Matrix infer_a_;
  mutable Matrix infer_b_;
};

}  // namespace ctj::rl
