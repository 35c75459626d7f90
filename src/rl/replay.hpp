// Uniform experience replay for the DQN (Sec. III.C). Every transition is
// stored as one fixed-stride row of doubles (actions, rewards and done
// flags are exact in a double)
//
//   [action, reward, done, state(0..dim), next_state(0..dim)]
//
// written by ReplayRing::push() and unpacked by unpack_transition(). The
// DqnAgent owns one ReplayRing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "io/bytes.hpp"
#include "rl/matrix.hpp"

namespace ctj::rl {

/// DqnAgent::observe's argument.
struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  /// Terminal flag; the anti-jamming competition is a continuing task so this
  /// stays false there, but the agent is generic.
  bool done = false;
};

/// Number of doubles in one row for a given state dimension.
constexpr std::size_t transition_stride(std::size_t state_dim) {
  return 3 + 2 * state_dim;
}

// Field offsets within a row.
inline constexpr std::size_t kTransAction = 0;
inline constexpr std::size_t kTransReward = 1;
inline constexpr std::size_t kTransDone = 2;
inline constexpr std::size_t kTransState = 3;

struct TransitionRow {
  std::size_t action;
  double reward;
  bool done;
  std::span<const double> state;
  std::span<const double> next_state;
};
TransitionRow unpack_transition(const double* row, std::size_t state_dim);

/// The layout DqnAgent::train_on_batch consumes.
struct Minibatch {
  Matrix states;
  Matrix next_states;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;
  std::vector<std::uint8_t> dones;
  /// The ring slot each row was read from, which keys the learner's
  /// bootstrap cache.
  std::vector<std::size_t> slots;
};

/// Pushes fill the ring, then each overwrites the oldest row in place.
/// Storage is reserved up front and touched only as rows are filled.
class ReplayRing {
 public:
  ReplayRing(std::size_t capacity, std::size_t state_dim,
             std::size_t num_actions);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t state_dim() const { return state_dim_; }
  /// The slot the next push overwrites once full (0 while filling).
  std::size_t cursor() const { return cursor_; }
  /// Slot i in storage order (i < size()).
  const double* row(std::size_t i) const;

  /// Returns the slot the transition was written to.
  std::size_t push(const Transition& transition);

  /// Uniform with replacement: one rng.index(size()) per row, which is also
  /// the row's slot in out.slots.
  void sample_into(std::size_t batch, Rng& rng, Minibatch& out) const;

  // The REPLAY chunk: capacity, cursor, count, then per row
  // f64_vec(state), u64 action, f64 reward, f64_vec(next_state), u8 done.
  // The decoder returns a new ring with this one's dimensions, or throws
  // io::IoError unless the fill invariants hold and every row fits: states
  // of length state_dim, an integer action below num_actions, done 0 or 1.
  void save_transitions(io::ByteWriter& out) const;
  ReplayRing decode_transitions(io::ByteReader& in) const;

 private:
  double* claim();
  void check_fill(std::uint64_t capacity, std::uint64_t count,
                  std::uint64_t cursor) const;
  void check_fields(double action, double done) const;

  std::size_t capacity_;
  std::size_t state_dim_;
  std::size_t num_actions_;
  std::size_t stride_;
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;
  std::vector<double> rows_;  // [size × stride], storage order
};

}  // namespace ctj::rl
