// The state a learned hopping scheme keeps around its agent (Sec. III.C):
// the 3×I observation window, the training flag, the deploy-time ε-greedy
// RNG, and the pending (state, action) that waits for the slot's feedback.
//
// DqnScheme and QLearningScheme each hold one PolicyShell. They differ only
// in their agent, their Config codec and their learn step; the decide
// branch, the window slide and the state block below are written once, here.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/observation_windows.hpp"
#include "core/scheme.hpp"
#include "io/bytes.hpp"

namespace ctj::core {

class PolicyShell {
 public:
  PolicyShell(std::size_t history, int num_channels,
              std::size_t num_power_levels, bool training,
              std::uint64_t deploy_seed);

  bool training() const { return training_; }
  void set_training(bool training) { training_ = training; }

  /// The current 3×I observation, oldest slot first.
  std::span<const double> observation() const { return window_.row(0); }

  /// All-zero window, no pending decision.
  void reset();

  /// Pick the slot's action and remember it as pending. While training the
  /// agent explores (`act`); deployed, the frozen policy plays ε-greedy with
  /// its own RNG (Sec. III.C: a random action with probability
  /// deploy_epsilon keeps the channel pattern unpredictable to a sweeping
  /// jammer), otherwise `act_greedy`. The action a decodes to channel
  /// a / PL and power level a % PL.
  template <class Agent>
  SchemeDecision decide(Agent& agent, double deploy_epsilon) {
    const std::span<const double> obs = observation();
    std::size_t action;
    if (training_) {
      action = agent.act(obs);
    } else if (deploy_epsilon > 0.0 && deploy_rng_.bernoulli(deploy_epsilon)) {
      action = deploy_rng_.index(agent.config().num_actions);
    } else {
      action = agent.act_greedy(obs);
    }
    pending_state_.assign(obs.begin(), obs.end());
    pending_action_ = action;
    has_pending_ = true;
    SchemeDecision decision;
    decision.channel = static_cast<int>(action / power_levels_);
    decision.power_index = action % power_levels_;
    return decision;
  }

  /// Slide the window with the slot's outcome. When training and a decision
  /// is pending, call learn(state, action, next_state) first; `state` is
  /// the pending vector itself, which learn may move from.
  template <class Learn>
  void feedback(const SlotFeedback& feedback, Learn&& learn) {
    window_.push(0, feedback.success, feedback.channel, feedback.power_index);
    if (has_pending_ && training_) {
      learn(pending_state_, pending_action_, observation());
    }
    has_pending_ = false;
  }

  /// The state block: [u8 training, str deploy RNG, u64 I, 3I × f64 window,
  /// u8 has_pending, f64_vec pending state, u64 pending action].
  void save_state(io::ByteWriter& out) const;

  /// A decoded, validated state block, not yet applied.
  struct Decoded {
    bool training = true;
    Rng deploy_rng;
    std::vector<double> window;
    bool has_pending = false;
    std::vector<double> pending_state;
    std::size_t pending_action = 0;
  };

  /// Decode a state block without touching the shell. Throws io::IoError:
  /// kStateMismatch when the window length differs from this shell's I,
  /// kBadPayload on a malformed RNG state, a pending state of the wrong
  /// dimension or a pending action outside [0, num_actions).
  Decoded decode_state(io::ByteReader& in, std::size_t num_actions) const;

  /// Apply a decoded state block (does not throw).
  void commit(Decoded&& state);

 private:
  ObservationWindows window_;  // one replica
  std::size_t power_levels_;
  Rng deploy_rng_;
  bool training_;
  std::vector<double> pending_state_;
  std::size_t pending_action_ = 0;
  bool has_pending_ = false;
};

}  // namespace ctj::core
