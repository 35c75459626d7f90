#include "rl/replay_shard.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "io/format.hpp"

namespace ctj::rl {

TransitionQueue::TransitionQueue(std::size_t capacity, std::size_t state_dim)
    : state_dim_(state_dim),
      stride_(transition_stride(state_dim)),
      index_(next_pow2(capacity)),
      buf_(index_.capacity() * stride_) {
  CTJ_CHECK(state_dim > 0);
}

ShardedReplay::ShardedReplay(std::size_t shards,
                             std::size_t capacity_per_shard,
                             std::size_t state_dim)
    : capacity_(capacity_per_shard),
      state_dim_(state_dim),
      stride_(transition_stride(state_dim)),
      shards_(shards) {
  CTJ_CHECK(shards > 0);
  CTJ_CHECK(capacity_per_shard > 0);
  CTJ_CHECK(state_dim > 0);
  for (Shard& shard : shards_) shard.records.reserve(capacity_ * stride_);
}

void ShardedReplay::append(std::size_t shard_index, const double* record) {
  CTJ_CHECK(shard_index < shards_.size());
  Shard& shard = shards_[shard_index];
  if (shard.size < capacity_) {
    shard.records.insert(shard.records.end(), record, record + stride_);
    ++shard.size;
    ++total_size_;
    if (shard.size == capacity_) shard.cursor = 0;
    return;
  }
  // Ring overwrite of the oldest entry.
  std::memcpy(shard.records.data() + shard.cursor * stride_, record,
              stride_ * sizeof(double));
  shard.cursor = (shard.cursor + 1) % capacity_;
}

void ShardedReplay::sample_into(std::size_t batch, Rng& rng, Matrix& states,
                                Matrix& next_states,
                                std::vector<std::size_t>& actions,
                                std::vector<double>& rewards,
                                std::vector<std::uint8_t>& dones) const {
  CTJ_CHECK(batch > 0);
  CTJ_CHECK_MSG(total_size_ > 0, "sampling from an empty replay");
  states.resize(batch, state_dim_);
  next_states.resize(batch, state_dim_);
  actions.resize(batch);
  rewards.resize(batch);
  dones.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    std::size_t u = rng.index(total_size_);
    // Locate the shard holding global index u (shard counts are small —
    // one per actor — so a linear scan beats a prefix-sum structure).
    std::size_t s = 0;
    while (u >= shards_[s].size) {
      u -= shards_[s].size;
      ++s;
    }
    const double* rec = shards_[s].records.data() + u * stride_;
    actions[i] = static_cast<std::size_t>(rec[kTransAction]);
    rewards[i] = rec[kTransReward];
    dones[i] = rec[kTransDone] != 0.0 ? 1 : 0;
    std::memcpy(states.data() + i * state_dim_, rec + kTransState,
                state_dim_ * sizeof(double));
    std::memcpy(next_states.data() + i * state_dim_,
                rec + kTransState + state_dim_, state_dim_ * sizeof(double));
  }
}

void ShardedReplay::save_state(io::ByteWriter& out) const {
  out.u64(shards_.size());
  out.u64(capacity_);
  out.u64(state_dim_);
  for (const Shard& shard : shards_) {
    out.u64(shard.size);
    out.u64(shard.cursor);
    out.f64_array(shard.records);
  }
}

void ShardedReplay::load_state(io::ByteReader& in) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "sharded replay state differs in " + what);
  };
  if (in.u64() != shards_.size()) throw mismatch("shard count");
  if (in.u64() != capacity_) throw mismatch("shard capacity");
  if (in.u64() != state_dim_) throw mismatch("state dimension");
  std::vector<Shard> loaded(shards_.size());
  std::size_t total = 0;
  for (Shard& shard : loaded) {
    shard.size = static_cast<std::size_t>(in.u64());
    shard.cursor = static_cast<std::size_t>(in.u64());
    if (shard.size > capacity_ ||
        (shard.size < capacity_ && shard.cursor != 0) ||
        (shard.size == capacity_ && shard.cursor >= capacity_)) {
      throw io::IoError(io::ErrorKind::kBadPayload,
                        "sharded replay ring size/cursor invariant");
    }
    shard.records.resize(shard.size * stride_);
    in.f64_array(shard.records);
    total += shard.size;
  }
  shards_ = std::move(loaded);
  for (Shard& shard : shards_) shard.records.reserve(capacity_ * stride_);
  total_size_ = total;
}

}  // namespace ctj::rl
