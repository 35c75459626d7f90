// Tabular Q-learning baseline.
//
// Sec. III.C motivates the DQN by contrast with classic Q-learning, whose
// convergence "suffers from the curse of high-dimensionality": the table
// grows with the product of the observation quantization levels, and every
// cell must be visited many times. This implementation discretizes a
// continuous observation vector onto a per-dimension grid so the comparison
// in bench_ablation_dqn can quantify that claim on the same environment.
//
// A row stores only the actions an update has written to it. A 2 048-slot
// serve job visits ≈ 1 870 states and writes about one of the 160 actions
// in each, so dense rows would be ~99 % zeros (2.4 MB per job).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "io/bytes.hpp"

namespace ctj::rl {

struct QLearningConfig {
  std::size_t state_dim = 24;
  std::size_t num_actions = 160;
  /// Quantization levels per observation dimension (the table has up to
  /// bins^state_dim cells — the curse the paper refers to).
  std::size_t bins_per_dim = 3;
  double learning_rate = 0.1;
  double gamma = 0.9;
  double reward_scale = 0.01;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 4000;
  std::uint64_t seed = 1;
};

class QLearningAgent {
 public:
  explicit QLearningAgent(QLearningConfig config);

  /// ε-greedy action for the (continuous) observation. A state with no
  /// table row reads as an all-zero row: greedy action 0.
  std::size_t act(std::span<const double> state);
  std::size_t act_greedy(std::span<const double> state) const;

  /// Q-learning update for (s, a, r, s'); an unvisited s' bootstraps with
  /// 0.0, and only s gets a table row.
  void update(std::span<const double> state, std::size_t action, double reward,
              std::span<const double> next_state);

  double epsilon() const;
  std::size_t steps() const { return steps_; }
  /// Number of distinct discretized states seen so far (table growth).
  std::size_t table_size() const { return table_.size(); }

  const QLearningConfig& config() const { return config_; }

  /// Checkpoint-format serialization: the RNG stream, step counter and the
  /// whole Q table with its keys sorted, each row written dense
  /// (num_actions doubles, +0.0 where no entry is stored), so identical
  /// agent state always yields identical bytes regardless of hash-map
  /// iteration order.
  /// load_state throws io::IoError (kBadPayload / kStateMismatch) on
  /// malformed or incompatible input, leaving the agent unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  /// One stored Q value. A row keeps only the actions written to it,
  /// sorted by action; an absent action reads +0.0.
  struct Entry {
    std::size_t action;
    double q;
  };
  using Row = std::vector<Entry>;

  /// The greedy action for a state and its Q value: what argmax and
  /// std::max_element give on the state's row written dense (no row reads
  /// as an all-zero row: action 0, value 0.0).
  Entry greedy(std::span<const double> state) const;

  /// Discretize an observation into a table key.
  std::uint64_t key_of(std::span<const double> state) const;

  QLearningConfig config_;
  mutable Rng rng_;
  std::unordered_map<std::uint64_t, Row> table_;
  std::size_t steps_ = 0;
};

}  // namespace ctj::rl
