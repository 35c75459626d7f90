// Vectorized multi-environment rollout engine.
//
// A VectorEnv steps R CompetitionEnvironment replicas in lockstep and lands
// the per-slot results in structure-of-arrays buffers, so a batched policy
// (DqnAgent::act_greedy_batch / act_batch) amortizes one network forward
// pass across all replicas instead of paying a batch-1 forward per slot.
// Replica r is seeded base_seed + r and owns its RNG stream, so its
// trajectory is identical, seed for seed, to a standalone environment
// constructed with that seed — batching R rollouts is exactly R independent
// rollouts, just interleaved in time.
//
// ObservationWindows (observation_windows.hpp, included here for the
// rollout drivers) is the SoA companion on the agent side: the R sliding
// 3×I observation windows kept as one [R × 3I] matrix that feeds the batched
// forward directly. DqnScheme keeps its own window in the same class, so a
// row is DqnScheme::observation() by construction, not by a second copy.
//
// DqnRollout puts the two together into the one lockstep DQN rollout that
// train_batched, evaluate_batched and the serve DqnTenant all step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/environment.hpp"
#include "core/observation_windows.hpp"
#include "core/rl_fh.hpp"
#include "io/container.hpp"
#include "rl/matrix.hpp"

namespace ctj::core {

class VectorEnv {
 public:
  /// R replicas of `config`; replica r runs with seed config.seed + r.
  VectorEnv(const EnvironmentConfig& config, std::size_t replicas);

  std::size_t size() const { return envs_.size(); }
  const EnvironmentConfig& config() const { return config_; }

  /// Step every replica: channels and power_indices hold one decision per
  /// replica. Results land in the SoA views below, valid until the next
  /// step(). Replica order is fixed (0..R−1), so the RNG consumption per
  /// replica matches a sequential rollout exactly.
  void step(std::span<const int> channels,
            std::span<const std::size_t> power_indices);

  // SoA views of the most recent step().
  std::span<const double> rewards() const { return rewards_; }
  std::span<const std::uint8_t> successes() const { return successes_; }
  std::span<const std::uint8_t> jammed() const { return jammed_; }
  std::span<const std::uint8_t> hopped() const { return hopped_; }
  std::span<const int> channels() const { return channels_; }
  std::span<const SlotOutcome> outcomes() const { return outcomes_; }

  CompetitionEnvironment& env(std::size_t r);
  const CompetitionEnvironment& env(std::size_t r) const;

  /// Reset every replica's channel/hidden state (RNG streams keep running,
  /// matching CompetitionEnvironment::reset()).
  void reset();

  /// Checkpoint-format serialization: replica count + every replica's full
  /// state, in replica order. load_state throws io::IoError on a replica
  /// count or per-replica config mismatch, leaving all replicas unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  EnvironmentConfig config_;
  std::vector<CompetitionEnvironment> envs_;
  std::vector<double> rewards_;
  std::vector<std::uint8_t> successes_;
  std::vector<std::uint8_t> jammed_;
  std::vector<std::uint8_t> hopped_;
  std::vector<int> channels_;
  std::vector<SlotOutcome> outcomes_;
};

/// R environment replicas and their observation windows, stepped in
/// lockstep by one batched policy. A round is: act on all windows at once,
/// split each action into (channel = a / PL, power = a % PL), step every
/// replica, then per replica in order push its window and emit the slot.
class DqnRollout {
 public:
  /// Replica r runs env_config with seed env_config.seed + r; the windows
  /// take history and dimensions from the scheme config.
  DqnRollout(const EnvironmentConfig& env_config,
             const DqnScheme::Config& scheme_config, std::size_t replicas);

  std::size_t size() const { return venv_.size(); }

  /// One round. `act(states, actions)` fills one action per replica from
  /// the [R × 3I] window matrix; `emit(r)` runs after replica r's window
  /// push and returns false to end the round early (the remaining replicas
  /// are stepped but not emitted). Returns false when emit ended the round.
  template <class Act, class Emit>
  bool step(Act&& act, Emit&& emit) {
    act(windows_.states(), std::span<std::size_t>(actions_));
    for (std::size_t r = 0; r < actions_.size(); ++r) {
      channels_[r] = static_cast<int>(actions_[r] / power_levels_);
      powers_[r] = actions_[r] % power_levels_;
    }
    const rl::Matrix& states = windows_.states();
    std::copy(states.data(), states.data() + states.size(), pre_.data());
    venv_.step(channels_, powers_);
    for (std::size_t r = 0; r < actions_.size(); ++r) {
      windows_.push(r, venv_.successes()[r] != 0, venv_.channels()[r],
                    powers_[r]);
      if (!emit(r)) return false;
    }
    return true;
  }

  // Views of the most recent round.
  std::span<const std::size_t> actions() const { return actions_; }
  std::span<const std::size_t> powers() const { return powers_; }
  /// Replica r's observation before the round (the transition's state);
  /// transition(r) pairs it with the window after the push.
  std::span<const double> pre_state(std::size_t r) const {
    return pre_.row_span(r);
  }
  /// Replica r's slot as a replay transition (continuing task: done=false).
  rl::Transition transition(std::size_t r) const;

  const VectorEnv& venv() const { return venv_; }
  /// The adversary as the live environments carry it (post geometry sync).
  const jammer::JammerSpec& jammer_spec() const {
    return venv_.env(0).config().jammer;
  }

  /// Append / restore the ENVSTATE and OBSWIN chunks.
  void save_state(io::ContainerWriter& out) const;
  void load_state(const io::ContainerReader& in);

 private:
  VectorEnv venv_;
  ObservationWindows windows_;
  std::size_t power_levels_;
  std::vector<std::size_t> actions_;
  std::vector<int> channels_;
  std::vector<std::size_t> powers_;
  rl::Matrix pre_;  // [R × 3I] windows before the round's push
};

}  // namespace ctj::core
