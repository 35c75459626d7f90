// The sliding reward window behind early stopping (Sec. IV.B): the last N
// per-slot rewards and their running sum. Every training and serving loop
// keeps exactly this window, so the update order and the checkpoint codec
// live here once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "io/bytes.hpp"

namespace ctj::core {

class RewardWindow {
 public:
  explicit RewardWindow(std::size_t capacity) : capacity_(capacity) {}

  /// Append a reward; once over capacity, evict the oldest. The sum is
  /// updated incrementally (add, then subtract the evicted value), and that
  /// order is part of the bit-identical resume contract.
  void push(double reward) {
    values_.push_back(reward);
    sum_ += reward;
    if (values_.size() > capacity_) {
      sum_ -= values_.front();
      values_.pop_front();
    }
  }

  std::size_t size() const { return values_.size(); }

  /// sum / size (0 for an empty window).
  double mean() const {
    return values_.empty() ? 0.0
                           : sum_ / static_cast<double>(values_.size());
  }

  /// Early-stop test: a target is set, the window is full and its mean has
  /// reached the target.
  bool reached(const std::optional<double>& target) const {
    return target && values_.size() == capacity_ && mean() >= *target;
  }

  /// Checkpoint codec: the raw running sum (f64; not recomputed on load, as
  /// a fresh summation differs from the incremental stream in floating
  /// point), the length (u64) and the values oldest first (f64 each).
  void encode(io::ByteWriter& out) const;

  /// Decode a window of `capacity` that `slots` slots have fed. A length
  /// above either bound throws io::IoError of `kind` before any value is
  /// read.
  static RewardWindow decode(io::ByteReader& in, std::size_t capacity,
                             std::uint64_t slots, io::ErrorKind kind);

 private:
  std::size_t capacity_;
  std::deque<double> values_;
  double sum_ = 0.0;
};

}  // namespace ctj::core
