#include "rl/replay.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"

namespace ctj::rl {
namespace {

/// `next_state` has the length of `state`.
void pack_transition(double* row, std::size_t action, double reward,
                     bool done, std::span<const double> state,
                     std::span<const double> next_state) {
  row[kTransAction] = static_cast<double>(action);
  row[kTransReward] = reward;
  row[kTransDone] = done ? 1.0 : 0.0;
  std::copy(state.begin(), state.end(), row + kTransState);
  std::copy(next_state.begin(), next_state.end(),
            row + kTransState + state.size());
}

}  // namespace

TransitionRow unpack_transition(const double* row, std::size_t state_dim) {
  return {static_cast<std::size_t>(row[kTransAction]), row[kTransReward],
          row[kTransDone] != 0.0, {row + kTransState, state_dim},
          {row + kTransState + state_dim, state_dim}};
}

ReplayRing::ReplayRing(std::size_t capacity, std::size_t state_dim,
                       std::size_t num_actions)
    : capacity_(capacity),
      state_dim_(state_dim),
      num_actions_(num_actions),
      stride_(transition_stride(state_dim)) {
  CTJ_CHECK(capacity > 0);
  CTJ_CHECK(state_dim > 0);
  CTJ_CHECK(num_actions > 0);
  rows_.reserve(capacity_ * stride_);
}

const double* ReplayRing::row(std::size_t i) const {
  CTJ_CHECK(i < size_);
  return rows_.data() + i * stride_;
}

double* ReplayRing::claim() {
  if (size_ < capacity_) {
    rows_.resize(rows_.size() + stride_);
    ++size_;
    return rows_.data() + rows_.size() - stride_;
  }
  double* slot = rows_.data() + cursor_ * stride_;
  cursor_ = (cursor_ + 1) % capacity_;
  return slot;
}

std::size_t ReplayRing::push(const Transition& t) {
  double* row = claim();
  pack_transition(row, t.action, t.reward, t.done, t.state, t.next_state);
  return static_cast<std::size_t>(row - rows_.data()) / stride_;
}

void ReplayRing::sample_into(std::size_t batch, Rng& rng,
                             Minibatch& out) const {
  CTJ_CHECK(batch > 0);
  CTJ_CHECK_MSG(size_ > 0, "sampling from an empty replay");
  out.states.resize(batch, state_dim_);
  out.next_states.resize(batch, state_dim_);
  out.actions.resize(batch);
  out.rewards.resize(batch);
  out.dones.resize(batch);
  out.slots.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t u = rng.index(size_);
    out.slots[i] = u;
    const TransitionRow t = unpack_transition(row(u), state_dim_);
    out.actions[i] = t.action;
    out.rewards[i] = t.reward;
    out.dones[i] = t.done ? 1 : 0;
    std::copy(t.state.begin(), t.state.end(),
              out.states.data() + i * state_dim_);
    std::copy(t.next_state.begin(), t.next_state.end(),
              out.next_states.data() + i * state_dim_);
  }
}

void ReplayRing::check_fill(std::uint64_t capacity, std::uint64_t count,
                            std::uint64_t cursor) const {
  if (capacity != capacity_) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "replay capacity " + std::to_string(capacity) +
                          " != configured " + std::to_string(capacity_));
  }
  // The cursor only advances once the ring is full; while filling it is 0.
  if (count > capacity_ ||
      (count < capacity_ ? cursor != 0 : cursor >= capacity_)) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "replay cursor " + std::to_string(cursor) +
                          " inconsistent with " + std::to_string(count) +
                          "/" + std::to_string(capacity_) + " fill");
  }
}

void ReplayRing::check_fields(double action, double done) const {
  // unpack_transition's cast is defined only for an integral double in
  // [0, 2^64); NaN fails the first comparison.
  if (!(action >= 0.0) || action != std::floor(action) ||
      (done != 0.0 && done != 1.0)) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "replay row action " + std::to_string(action) +
                          " / done " + std::to_string(done) + " malformed");
  }
  if (action >= static_cast<double>(num_actions_)) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "replay action " + std::to_string(action) +
                          " outside the agent's " +
                          std::to_string(num_actions_) + " actions");
  }
}

void ReplayRing::save_transitions(io::ByteWriter& out) const {
  out.u64(capacity_);
  out.u64(cursor_);
  out.u64(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const TransitionRow t = unpack_transition(row(i), state_dim_);
    out.u64(state_dim_);
    out.f64_array(t.state);
    out.u64(t.action);
    out.f64(t.reward);
    out.u64(state_dim_);
    out.f64_array(t.next_state);
    out.u8(t.done ? 1 : 0);
  }
}

ReplayRing ReplayRing::decode_transitions(io::ByteReader& in) const {
  const std::uint64_t capacity = in.u64();
  const std::uint64_t cursor = in.u64();
  const std::uint64_t count = in.u64();
  check_fill(capacity, count, cursor);
  ReplayRing ring(capacity_, state_dim_, num_actions_);
  std::vector<double> state(state_dim_), next_state(state_dim_);
  const auto read_state = [&](std::vector<double>& out) {
    if (in.u64() != state_dim_) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        "replay transition does not fit the agent's "
                        "state dimension");
    }
    in.f64_array(out);
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    read_state(state);
    const std::uint64_t action = in.u64();
    const double reward = in.f64();
    read_state(next_state);
    const std::uint8_t done = in.u8();
    check_fields(static_cast<double>(action), done);
    pack_transition(ring.claim(), static_cast<std::size_t>(action), reward,
                    done != 0, state, next_state);
  }
  ring.cursor_ = static_cast<std::size_t>(cursor);
  return ring;
}

}  // namespace ctj::rl
