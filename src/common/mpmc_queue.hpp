// Bounded lock-free multi-producer/multi-consumer queue.
//
// The serve engine (src/serve/engine.hpp) uses one of these as its job
// submission/ready ring: client threads and every worker push tenant ids,
// every worker pops them, so both ends are contended. The slots carry a
// per-cell sequence number (Vyukov's bounded MPMC design): a producer claims
// a cell by CASing the shared tail, writes the value, then publishes by
// bumping the cell's sequence; a consumer symmetrically claims via the head
// and releases the cell for the producer one lap later. Each push/pop is one
// CAS on the shared cursor plus one release store on the cell — no locks, no
// spurious blocking: try_push fails only when the ring is full, try_pop only
// when it is empty.
//
// Blocking/wakeup is deliberately left to the caller (the engine pairs the
// ring with a condition variable), so the queue itself stays allocation-free
// and usable from contexts that must not sleep.
#pragma once

#include <atomic>
#include <cstddef>
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

/// Bounded MPMC queue of movable elements. Capacity is rounded up to a
/// power of two (minimum 2). Any number of threads may push and pop.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity)
      : mask_(next_pow2(capacity < 2 ? 2 : capacity) - 1),
        cells_(mask_ + 1) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Move `value` in; false (value untouched) when the ring is full.
  bool try_push(T& value) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        // The cell is free this lap; claim it by advancing the tail.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // a full lap behind: the ring is full
      } else {
        pos = tail_.load(std::memory_order_relaxed);  // lost the race, retry
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool try_push(T&& value) {
    T moved = std::move(value);
    return try_push(moved);
  }

  /// Move the oldest element out; false when the ring is empty.
  bool try_pop(T& out) {
    Cell* cell;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // nothing published at this position yet
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    // Release the cell for the producer one lap ahead.
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate element count (racy by nature; exact when quiescent).
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  const std::size_t mask_;
  std::vector<Cell> cells_;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
};

}  // namespace ctj
