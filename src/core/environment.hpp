// The slot-level anti-jamming competition environment.
//
// This is the environment the DQN trains and evaluates in (Sec. IV.A.1): it
// samples next states from exactly the MDP kernel of Eqs. (6)–(14), with the
// hidden state (n consecutive successes / T_J jammed-but-survived / J jammed)
// evolving against the sweeping cross-technology jammer. The agent does NOT
// see the hidden state — as the paper notes, the victim cannot synchronize
// with the jammer — it only observes each slot's outcome, channel and power,
// which is what the DQN's 3×I history input encodes.
//
// Adversary selection: by default (`config.jammer` == the "kernel" sentinel)
// the environment samples the closed-form kernel above — bit-identical to
// the pre-registry behaviour. Setting `config.jammer.archetype` to any
// registered key instead drives a live behavioural jammer from the adversary
// zoo (jammer/registry.hpp) slot by slot: each slot's outcome comes from the
// jammer's actual sense/emit decisions and the power duel against its
// reported emission, which is how the non-sweep archetypes (reactive,
// duty-cycle, colluding, ...) are trained and evaluated against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/modes.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "io/bytes.hpp"
#include "jammer/registry.hpp"

namespace ctj::core {

struct EnvironmentConfig {
  int num_channels = 16;       // C == K
  int channels_per_sweep = 4;  // m
  /// Victim transmit power levels L^T (paper default 6..15).
  std::vector<double> tx_levels;
  /// Jammer power levels L^J (paper default 11..20).
  std::vector<double> jam_levels;
  JammerPowerMode mode = JammerPowerMode::kMaxPower;
  double loss_jam = 100.0;  // L_J
  double loss_hop = 50.0;   // L_H
  std::uint64_t seed = 5;
  /// Which adversary the victim competes against. The "kernel" sentinel
  /// samples the closed-form MDP kernel (the paper's sweep jammer in
  /// distribution); any registered archetype drives that behavioural jammer
  /// instead. The spec's channel geometry / power levels / mode are synced
  /// from the fields above at construction, so only `archetype` and the
  /// archetype-specific tunables need setting.
  jammer::JammerSpec jammer = jammer::JammerSpec::kernel();

  static EnvironmentConfig defaults();

  int sweep_cycle() const;  // ⌈K/m⌉
  std::size_t num_power_levels() const { return tx_levels.size(); }
  /// q_i = P(p^T_i >= τ) under the jammer's power mode.
  double success_prob(std::size_t power_index) const;
};

/// Outcome of one slot from the victim's perspective.
enum class SlotOutcome {
  kClear,           // not jammed: data went through
  kJammedSurvived,  // jammed but the tx power beat the jamming power (T_J)
  kJammedFailed,    // completely jammed (J)
};

const char* to_string(SlotOutcome outcome);

struct EnvStep {
  SlotOutcome outcome = SlotOutcome::kClear;
  /// Realized reward per Eq. (5): −L_p − L_H·[hop] − L_J·[outcome == J].
  double reward = 0.0;
  bool hopped = false;
  bool success = false;  // outcome != kJammedFailed
  int channel = 0;       // channel used this slot
};

class CompetitionEnvironment {
 public:
  explicit CompetitionEnvironment(EnvironmentConfig config);

  // Copyable (VectorEnv restores by copying replicas); the behavioural
  // jammer, when present, is deep-cloned with its RNG stream.
  CompetitionEnvironment(const CompetitionEnvironment& other);
  CompetitionEnvironment& operator=(const CompetitionEnvironment& other);
  CompetitionEnvironment(CompetitionEnvironment&&) = default;
  CompetitionEnvironment& operator=(CompetitionEnvironment&&) = default;

  /// Execute one slot: the victim transmits on `channel` at power level
  /// `power_index`. Choosing a channel different from current_channel()
  /// is a frequency hop (and pays L_H); only hops that leave the current
  /// m-channel group actually change the jamming odds, since the
  /// cross-technology jammer's emission covers the whole group.
  EnvStep step(int channel, std::size_t power_index);

  int current_channel() const { return channel_; }
  const EnvironmentConfig& config() const { return config_; }

  /// True when sampling the closed-form kernel ("kernel" sentinel); false
  /// when a behavioural jammer from the registry drives the outcomes.
  bool kernel_mode() const { return jam_ == nullptr; }
  /// The live behavioural jammer, or nullptr in kernel mode.
  const jammer::Jammer* behavioural_jammer() const { return jam_.get(); }
  /// Mutable access for drivers that inject carried jammer state into a
  /// fresh environment (the self-play arena restores a trained opponent
  /// via Jammer::load_state before stepping).
  jammer::Jammer* behavioural_jammer() { return jam_.get(); }

  /// Hidden state inspection for tests/oracles: n in [1, N−1], or N−1+1 →
  /// T_J, J encodings mirroring mdp::AntijamMdp indices.
  enum class HiddenKind { kCounting, kTj, kJ };
  HiddenKind hidden_kind() const { return kind_; }
  int hidden_n() const { return n_; }

  void reset();

  // Checkpoint-format serialization: the RNG stream, current channel and
  // hidden MDP state (plus the behavioural jammer's full state when one is
  // configured), preceded by a digest of the config so a checkpoint cannot
  // be resumed against a differently-parameterized environment (throws
  // io::IoError kStateMismatch; the environment is unchanged on any failed
  // load).
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  EnvironmentConfig config_;
  Rng rng_;
  int channel_ = 0;
  HiddenKind kind_ = HiddenKind::kCounting;
  int n_ = 1;  // valid when kind_ == kCounting
  std::unique_ptr<jammer::Jammer> jam_;  // null in kernel mode
};

/// One slot of the hub loop (Sec. III.C): the scheme decides, the
/// environment runs the slot, and the scheme gets the ACK feedback.
struct SlotPlay {
  SchemeDecision decision;
  EnvStep step;
};

SlotPlay play_slot(AntiJammingScheme& scheme, CompetitionEnvironment& env);

}  // namespace ctj::core
