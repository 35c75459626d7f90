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
// in each, so dense rows would be ~99 % zeros (2.4 MB per job). The table
// is three flat vectors (rows, entries, an open-addressing key index), so
// a job's table is a handful of allocations, not one per visited state,
// and QLSTATE v2 writes only the stored entries (≈ 60 KB after 2 048
// slots instead of 2.4 MB).
//
// The agent remembers the keys of the last two observations it hashed. In
// the policy shell's order act(s), update(s, a, r, s'), act(s') each
// observation is then discretized and hashed once.
#pragma once

#include <cstdint>
#include <span>
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
  /// table row reads as an all-zero row: greedy action 0. act_greedy is
  /// const but updates the key memo, so one agent serves one thread.
  std::size_t act(std::span<const double> state);
  std::size_t act_greedy(std::span<const double> state) const;

  /// Q-learning update for (s, a, r, s'); an unvisited s' bootstraps with
  /// 0.0, and only s gets a table row.
  void update(std::span<const double> state, std::size_t action, double reward,
              std::span<const double> next_state);

  double epsilon() const;
  std::size_t steps() const { return steps_; }
  /// Number of distinct discretized states seen so far (table growth).
  std::size_t table_size() const { return table_.rows.size(); }

  const QLearningConfig& config() const { return config_; }

  /// The QLSTATE table layout this build writes and reads.
  static constexpr std::uint32_t kStateVersion = 2;

  /// Checkpoint-format serialization (QLSTATE v2): u32 version, the RNG
  /// stream, u64 steps, u64 row count, then per row in first-write order a
  /// u64 key, a u32 entry count and (u32 action, f64 q) pairs in ascending
  /// action order. An entry whose bits are +0.0 is not written (it reads
  /// as absent), and a loaded table keeps the payload's row order, so a
  /// live agent and one revived from its bytes write the same bytes.
  /// load_state throws io::IoError on malformed input (kBadPayload) or
  /// another version (kVersionMismatch), leaving the agent unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  /// One stored Q value; an absent action reads +0.0.
  struct Entry {
    std::size_t action;
    double q;
  };
  /// A row's entries are entries[begin, begin + size), sorted by action,
  /// in a block with room for cap.
  struct Row {
    std::uint64_t key;
    std::uint32_t begin;
    std::uint32_t size;
    std::uint32_t cap;
  };
  /// The Q table: rows in the order they were first written, their entries,
  /// and a linear-probing index of row number + 1 (0 = empty slot) whose
  /// size is a power of two, at most half full.
  struct Table {
    static constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);

    Table() { reindex(16); }
    /// The row of `key`, or kNoRow.
    std::uint32_t find(std::uint64_t key) const;
    /// The row of `key`, appended empty if the key has none.
    std::uint32_t find_or_add(std::uint64_t key);
    /// The entry of `action` in row r, inserted as +0.0 if absent.
    double& entry(std::uint32_t r, std::size_t action);
    std::span<const Entry> entries_of(std::uint32_t r) const {
      return {entries.data() + rows[r].begin, rows[r].size};
    }

    std::vector<Row> rows;
    std::vector<Entry> entries;
    std::vector<std::uint32_t> index;

   private:
    /// The index slot that holds `key`, or the empty slot where it goes.
    std::size_t probe(std::uint64_t key) const;
    void reindex(std::size_t slots);

    int shift_ = 0;  // 64 − log2(index.size())
  };

  /// The greedy action of row r and its Q value: what argmax and
  /// std::max_element give on the row written dense (no row, kNoRow,
  /// reads as an all-zero row: action 0, value 0.0).
  Entry greedy(std::uint32_t r) const;

  /// The table key of an observation: from the memo when its bits equal
  /// one of the last two observations hashed, else discretized and hashed.
  std::uint64_t key_of(std::span<const double> state) const;

  QLearningConfig config_;
  mutable Rng rng_;
  Table table_;
  std::size_t steps_ = 0;

  // The last two observations hashed (2 × state_dim doubles) and their
  // keys; memo_recent_ is the one looked up last. Both start as the zero
  // observation, so every slot always holds a true (observation, key) pair.
  mutable std::vector<double> memo_states_;
  mutable std::uint64_t memo_keys_[2] = {};
  mutable std::size_t memo_recent_ = 0;
};

}  // namespace ctj::rl
