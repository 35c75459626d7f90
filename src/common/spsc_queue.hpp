// Bounded lock-free single-producer/single-consumer queues.
//
// The parallel actor-learner trainer (core/train_parallel) wires one queue
// per actor shard: the actor thread is the only producer, the learner thread
// the only consumer, so a classic two-index ring with acquire/release
// publication is race-free without a single lock on the hot path. Both
// queues here share that index protocol through SpscIndex:
//
//   producer: read head (consumer cursor) to check space, write the slot,
//             then tail.store(release) — the release publishes the slot's
//             bytes to the consumer's matching acquire load;
//   consumer: read tail (acquire), read the slot, then head.store(release).
//
// Each side keeps a cached copy of the other's cursor so the common case
// (queue neither full nor empty) touches only its own cache line.
//
// SpscQueue<T> is the generic movable-element queue; TransitionQueue in
// rl/replay.hpp builds on the same index core with a flat fixed-stride
// payload so the trainer's transition stream moves without any allocation.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ctj {

// Fixed 64 rather than std::hardware_destructive_interference_size: the
// value is part of the struct layout, and GCC warns (-Winterference-size)
// that the standard constant can drift across compiler versions/-mtune.
// 64 bytes is correct for every x86-64 and the common AArch64 cores.
inline constexpr std::size_t kCacheLineSize = 64;

/// Round up to the next power of two (minimum 1).
constexpr std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The index protocol of a bounded SPSC ring: monotonically increasing
/// head (consumed count) and tail (produced count), capacity a power of two
/// so ring positions are a mask away. Holds no payload — the owning queue
/// stores slots however it likes and calls acquire/commit (producer) and
/// front/release (consumer).
class SpscIndex {
 public:
  explicit SpscIndex(std::size_t capacity_pow2) : capacity_(capacity_pow2) {
    CTJ_CHECK_MSG(capacity_pow2 > 0 && (capacity_pow2 & (capacity_pow2 - 1)) == 0,
                  "SPSC capacity must be a power of two");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t mask() const { return capacity_ - 1; }

  /// Producer: ring position to write next, or false when full.
  bool try_acquire(std::size_t& pos) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    pos = tail & mask();
    return true;
  }

  /// Producer: publish the slot written after try_acquire().
  void commit() {
    tail_.store(tail_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Consumer: ring position of the oldest element, or false when empty.
  bool try_front(std::size_t& pos) const {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    pos = head & mask();
    return true;
  }

  /// Consumer: release the slot returned by try_front().
  void release() {
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Approximate element count (exact on the consumer thread).
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t capacity_;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};  // producer-owned
  std::size_t head_cache_ = 0;                                // producer-local
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(kCacheLineSize) mutable std::size_t tail_cache_ = 0;  // consumer-local
};

/// Bounded SPSC queue of movable elements. Capacity is rounded up to a
/// power of two. Exactly one thread may push, exactly one may pop.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : index_(next_pow2(capacity)), slots_(index_.capacity()) {}

  std::size_t capacity() const { return index_.capacity(); }
  std::size_t size_approx() const { return index_.size_approx(); }

  /// Producer: move `value` in; false (value untouched) when full.
  bool try_push(T& value) {
    std::size_t pos;
    if (!index_.try_acquire(pos)) return false;
    slots_[pos] = std::move(value);
    index_.commit();
    return true;
  }

  bool try_push(T&& value) {
    T moved = std::move(value);
    return try_push(moved);
  }

  /// Consumer: move the oldest element out; false when empty.
  bool try_pop(T& out) {
    std::size_t pos;
    if (!index_.try_front(pos)) return false;
    out = std::move(slots_[pos]);
    index_.release();
    return true;
  }

 private:
  SpscIndex index_;
  std::vector<T> slots_;
};

}  // namespace ctj
