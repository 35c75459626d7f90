// Uniform experience replay for the DQN (Sec. III.C). Every transition is
// stored as one fixed-stride row of doubles (actions, rewards and done
// flags are exact in a double)
//
//   [action, reward, done, state(0..dim), next_state(0..dim)]
//
// written by pack_transition() and unpacked by unpack_transition(). The
// DqnAgent owns one ReplayRing; the parallel trainer's learner owns one per
// actor shard (ShardedReplay), fed through SPSC TransitionQueues whose slots
// hold the same rows, so an actor writes its record in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
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

/// `next_state` has the length of `state`.
void pack_transition(double* row, std::size_t action, double reward,
                     bool done, std::span<const double> state,
                     std::span<const double> next_state);

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
  /// The ring slot each row was read from (ReplayRing::sample_into); empty
  /// when the rows have no single ring (ShardedReplay::sample_into).
  std::vector<std::size_t> slots;
};

/// Bounded SPSC ring of rows. One producer (an actor thread) and one
/// consumer (the learner).
class TransitionQueue {
 public:
  /// `capacity` rows (rounded up to a power of two) of `state_dim`-sized
  /// transitions.
  TransitionQueue(std::size_t capacity, std::size_t state_dim);

  std::size_t capacity() const { return index_.capacity(); }
  std::size_t stride() const { return stride_; }

  /// Producer: pointer to the next row to fill, nullptr when full. The row
  /// is not visible to the consumer until commit().
  double* try_acquire() {
    std::size_t pos;
    if (!index_.try_acquire(pos)) return nullptr;
    return buf_.data() + pos * stride_;
  }
  void commit() { index_.commit(); }

  /// Consumer: oldest committed row, nullptr when empty. Valid until pop().
  const double* try_front() const {
    std::size_t pos;
    if (!index_.try_front(pos)) return nullptr;
    return buf_.data() + pos * stride_;
  }
  void pop() { index_.release(); }

 private:
  std::size_t state_dim_;
  std::size_t stride_;
  SpscIndex index_;
  std::vector<double> buf_;
};

/// Appends fill the ring, then each overwrites the oldest row in place.
/// Storage is reserved up front and touched only as rows are filled.
class ReplayRing {
 public:
  ReplayRing(std::size_t capacity, std::size_t state_dim,
             std::size_t num_actions);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t state_dim() const { return state_dim_; }
  /// The slot the next append overwrites once full (0 while filling).
  std::size_t cursor() const { return cursor_; }
  /// Slot i in storage order (i < size()).
  const double* row(std::size_t i) const;

  void append(const double* row);
  /// Returns the slot the transition was written to.
  std::size_t push(const Transition& transition);

  /// Uniform with replacement: one rng.index(size()) per row, which is also
  /// the row's slot in out.slots.
  void sample_into(std::size_t batch, Rng& rng, Minibatch& out) const;

  // Two checkpoint encodings. Each decoder returns a new ring with this
  // one's dimensions, or throws io::IoError unless the fill invariants hold
  // and every row fits: states of length state_dim, an integer action
  // below num_actions, done 0 or 1.
  //
  // The REPLAY chunk: capacity, cursor, count, then per row
  // f64_vec(state), u64 action, f64 reward, f64_vec(next_state), u8 done.
  void save_transitions(io::ByteWriter& out) const;
  ReplayRing decode_transitions(io::ByteReader& in) const;
  // One SHRDRPLY shard: size, cursor, then the rows as they are stored.
  void save_rows(io::ByteWriter& out) const;
  ReplayRing decode_rows(io::ByteReader& in) const;

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

/// One ReplayRing per actor shard, sampled over the union of the shards.
/// Only the learner touches it, so it takes no lock.
class ShardedReplay {
 public:
  ShardedReplay(std::size_t shards, std::size_t capacity_per_shard,
                std::size_t state_dim, std::size_t num_actions);

  std::size_t shard_count() const { return shards_.size(); }
  /// Transitions currently held, summed over shards.
  std::size_t size() const;

  void append(std::size_t shard, const double* row) {
    shards_.at(shard).append(row);
  }
  /// One rng.index(size()) per row, indexing shard 0's rows first.
  void sample_into(std::size_t batch, Rng& rng, Minibatch& out) const;

  /// The SHRDRPLY chunk: shard count, capacity, state_dim, then each
  /// ring's save_rows(). A failed load_state throws io::IoError and leaves
  /// every shard unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  std::vector<ReplayRing> shards_;
};

}  // namespace ctj::rl
