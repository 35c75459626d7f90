// The hub's observation window (Sec. III.C): the last I slots, three
// observables per slot as the victim sees them — per slot, oldest first:
// success flag, channel/(C−1), power/(PL−1).
//
// ObservationWindows keeps R such windows as one [R × 3I] matrix that feeds
// a batched forward directly. It is the only copy of the window slide and
// its normalization: DqnScheme and QLearningScheme keep one replica (through
// PolicyShell), DqnRollout keeps one per environment replica.
#pragma once

#include <cstddef>
#include <span>

#include "io/bytes.hpp"
#include "rl/matrix.hpp"

namespace ctj::core {

class ObservationWindows {
 public:
  ObservationWindows(std::size_t replicas, std::size_t history,
                     int num_channels, std::size_t num_power_levels);

  std::size_t size() const { return replicas_; }
  std::size_t history() const { return history_; }

  /// All windows back to the all-zero initial history.
  void reset();

  /// Slide replica r's window one slot: drop the oldest record, append
  /// (success, channel/(C−1), power/(PL−1)).
  void push(std::size_t r, bool success, int channel, std::size_t power_index);

  /// The [R × 3I] batch of observations — feed directly to
  /// DqnAgent::act_greedy_batch / q_values_batch.
  const rl::Matrix& states() const { return states_; }

  /// Replica r's current observation.
  std::span<const double> row(std::size_t r) const;

  /// Overwrite replica r's window with 3I values (a restored state).
  void set_row(std::size_t r, std::span<const double> values);

  /// Checkpoint-format serialization of the window matrix (+ dimension
  /// digest); load_state throws io::IoError kStateMismatch on any
  /// dimension difference, leaving the windows unchanged.
  void save_state(io::ByteWriter& out) const;
  void load_state(io::ByteReader& in);

 private:
  std::size_t replicas_;
  std::size_t history_;
  int num_channels_;
  std::size_t num_power_levels_;
  rl::Matrix states_;  // [R × 3·history]
};

}  // namespace ctj::core
