#include "rl/qlearning.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/check.hpp"

namespace ctj::rl {

namespace {

/// FNV-style rolling hash of the per-dimension bin indices. Observations
/// are expected in [0, 1]; out-of-range values clamp to the edge bins.
std::uint64_t hash_bins(std::span<const double> state, std::size_t bins) {
  std::uint64_t key = 1469598103934665603ULL;
  for (double v : state) {
    const double clamped = std::min(1.0, std::max(0.0, v));
    auto bin = static_cast<std::uint64_t>(clamped * static_cast<double>(bins));
    bin = std::min<std::uint64_t>(bin, bins - 1);
    key ^= bin + 0x9e3779b97f4a7c15ULL;
    key *= 1099511628211ULL;
  }
  return key;
}

}  // namespace

// ------------------------------------------------------------------ Table --

std::size_t QLearningAgent::Table::probe(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key·2^64/φ pick the home slot.
  const std::size_t mask = index.size() - 1;
  std::size_t i = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                           shift_);
  while (index[i] != 0 && rows[index[i] - 1].key != key) i = (i + 1) & mask;
  return i;
}

void QLearningAgent::Table::reindex(std::size_t slots) {
  index.assign(slots, 0);
  shift_ = 64 - std::countr_zero(slots);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    index[probe(rows[r].key)] = static_cast<std::uint32_t>(r + 1);
  }
}

std::uint32_t QLearningAgent::Table::find(std::uint64_t key) const {
  const std::uint32_t slot = index[probe(key)];
  return slot == 0 ? kNoRow : slot - 1;
}

std::uint32_t QLearningAgent::Table::find_or_add(std::uint64_t key) {
  std::size_t slot = probe(key);
  if (index[slot] != 0) return index[slot] - 1;
  CTJ_CHECK(rows.size() + 1 < kNoRow);
  if (2 * (rows.size() + 1) > index.size()) {
    reindex(2 * index.size());
    slot = probe(key);
  }
  rows.push_back({key, static_cast<std::uint32_t>(entries.size()), 0, 0});
  index[slot] = static_cast<std::uint32_t>(rows.size());
  return static_cast<std::uint32_t>(rows.size() - 1);
}

double& QLearningAgent::Table::entry(std::uint32_t r, std::size_t action) {
  Row& row = rows[r];
  Entry* first = entries.data() + row.begin;
  const std::size_t at = static_cast<std::size_t>(
      std::lower_bound(first, first + row.size, action,
                       [](const Entry& e, std::size_t a) {
                         return e.action < a;
                       }) -
      first);
  if (at < row.size && first[at].action == action) return first[at].q;
  if (row.size == row.cap) {
    // The row moves to a block of twice the room at the end; its old
    // slots are left unused.
    const std::size_t begin = entries.size();
    const std::size_t cap = std::max<std::size_t>(1, 2 * std::size_t{row.cap});
    CTJ_CHECK(begin + cap <= static_cast<std::size_t>(kNoRow));
    entries.resize(begin + cap);
    std::copy_n(entries.begin() + row.begin, row.size,
                entries.begin() + static_cast<std::ptrdiff_t>(begin));
    row.begin = static_cast<std::uint32_t>(begin);
    row.cap = static_cast<std::uint32_t>(cap);
    first = entries.data() + begin;
  }
  std::copy_backward(first + at, first + row.size, first + row.size + 1);
  first[at] = {action, 0.0};
  ++row.size;
  return first[at].q;
}

// ------------------------------------------------------------------ agent --

QLearningAgent::QLearningAgent(QLearningConfig config)
    : config_(config),
      rng_(config.seed),
      memo_states_(2 * config.state_dim, 0.0) {
  CTJ_CHECK(config.state_dim > 0);
  CTJ_CHECK(config.num_actions >= 2);
  // QLSTATE writes actions as u32.
  CTJ_CHECK(config.num_actions <= std::numeric_limits<std::uint32_t>::max());
  CTJ_CHECK(config.bins_per_dim >= 2);
  CTJ_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);
  memo_keys_[0] = memo_keys_[1] = hash_bins(
      std::span<const double>(memo_states_).first(config.state_dim),
      config.bins_per_dim);
}

std::uint64_t QLearningAgent::key_of(std::span<const double> state) const {
  CTJ_CHECK(state.size() == config_.state_dim);
  const std::size_t dim = config_.state_dim;
  for (const std::size_t slot : {memo_recent_, 1 - memo_recent_}) {
    if (std::memcmp(memo_states_.data() + slot * dim, state.data(),
                    state.size_bytes()) == 0) {
      memo_recent_ = slot;
      return memo_keys_[slot];
    }
  }
  const std::size_t slot = 1 - memo_recent_;
  std::copy(state.begin(), state.end(),
            memo_states_.begin() + static_cast<std::ptrdiff_t>(slot * dim));
  memo_keys_[slot] = hash_bins(state, config_.bins_per_dim);
  memo_recent_ = slot;
  return memo_keys_[slot];
}

double QLearningAgent::epsilon() const {
  if (config_.epsilon_decay_steps == 0) return config_.epsilon_end;
  const double frac =
      std::min(1.0, static_cast<double>(steps_) /
                        static_cast<double>(config_.epsilon_decay_steps));
  return config_.epsilon_start +
         frac * (config_.epsilon_end - config_.epsilon_start);
}

QLearningAgent::Entry QLearningAgent::greedy(std::uint32_t r) const {
  if (r == Table::kNoRow) return {0, 0.0};
  const std::span<const Entry> row = table_.entries_of(r);
  // std::max_element on the dense row starts at action 0 and moves to a
  // later action only if best.q < q. Of the absent actions (+0.0) only the
  // first can move it: once a +0.0 has been compared, !(best.q < 0.0)
  // holds (best.q >= 0.0 or NaN), and each later move keeps it. So scan
  // the stored entries plus the first absent action, in action order,
  // starting from action 0 (stored or absent; rescanning it moves nothing).
  Entry best{0, !row.empty() && row.front().action == 0 ? row.front().q
                                                        : 0.0};
  const auto scan = [&best](std::size_t action, double q) {
    if (best.q < q) best = {action, q};
  };
  constexpr std::size_t kScanned = static_cast<std::size_t>(-1);
  std::size_t gap = 0;  // the first absent action, until it is scanned
  for (const Entry& e : row) {
    if (e.action == gap) {
      ++gap;
    } else if (gap < e.action) {
      scan(gap, 0.0);
      gap = kScanned;
    }
    scan(e.action, e.q);
  }
  if (gap < config_.num_actions) scan(gap, 0.0);
  return best;
}

std::size_t QLearningAgent::act_greedy(std::span<const double> state) const {
  return greedy(table_.find(key_of(state))).action;
}

std::size_t QLearningAgent::act(std::span<const double> state) {
  const std::size_t best = act_greedy(state);
  if (!rng_.bernoulli(epsilon())) return best;
  std::size_t other = rng_.index(config_.num_actions - 1);
  if (other >= best) ++other;
  return other;
}

void QLearningAgent::update(std::span<const double> state, std::size_t action,
                            double reward,
                            std::span<const double> next_state) {
  CTJ_CHECK(action < config_.num_actions);
  const double max_next = greedy(table_.find(key_of(next_state))).q;
  double& q = table_.entry(table_.find_or_add(key_of(state)), action);
  const double target = reward * config_.reward_scale + config_.gamma * max_next;
  q += config_.learning_rate * (target - q);
  ++steps_;
}

void QLearningAgent::save_state(io::ByteWriter& out) const {
  out.u32(kStateVersion);
  out.str(rng_.serialize_state());
  out.u64(steps_);
  out.u64(table_.rows.size());
  out.reserve(12 * (table_.rows.size() + table_.entries.size()));
  // Rows in first-write order, each built in a scratch buffer and written
  // in one append: key u64, entry count u32, then (action u32, q f64) per
  // entry whose bits are not +0.0, actions ascending.
  std::vector<char> scratch(12 + 12 * config_.num_actions);
  const auto put = [](char* at, std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      at[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
  };
  for (std::uint32_t r = 0; r < table_.rows.size(); ++r) {
    char* at = scratch.data() + 12;
    std::uint64_t count = 0;
    for (const Entry& e : table_.entries_of(r)) {
      const auto bits = std::bit_cast<std::uint64_t>(e.q);
      if (bits == 0) continue;
      put(at, e.action, 4);
      put(at + 4, bits, 8);
      at += 12;
      ++count;
    }
    put(scratch.data(), table_.rows[r].key, 8);
    put(scratch.data() + 8, count, 4);
    out.bytes(scratch.data(), static_cast<std::size_t>(at - scratch.data()));
  }
}

void QLearningAgent::load_state(io::ByteReader& in) {
  const std::uint32_t version = in.u32();
  if (version != kStateVersion) {
    throw io::IoError(io::ErrorKind::kVersionMismatch,
                      "QL table version " + std::to_string(version) +
                          ", this build reads " +
                          std::to_string(kStateVersion));
  }
  const std::string rng_text = in.str();
  Rng rng;
  try {
    rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "QL agent RNG state");
  }
  const std::uint64_t steps = in.u64();
  // Every count is untrusted: a row takes at least 12 bytes (its key and
  // entry count) and an entry 12 (action and value), so no count may
  // promise more than the bytes that remain.
  const auto bad = [](const std::string& what) {
    return io::IoError(io::ErrorKind::kBadPayload, what);
  };
  const std::uint64_t rows = in.u64();
  if (rows > in.remaining() / 12) {
    throw bad("Q table of " + std::to_string(rows) +
              " rows exceeds remaining payload " +
              std::to_string(in.remaining()));
  }
  Table table;
  table.rows.reserve(static_cast<std::size_t>(rows));
  table.entries.reserve((in.remaining() - 12 * rows) / 12);
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t key = in.u64();
    const std::uint32_t count = in.u32();
    if (count > config_.num_actions || count > in.remaining() / 12) {
      throw bad("Q row of " + std::to_string(count) + " entries (" +
                std::to_string(config_.num_actions) + " actions, " +
                std::to_string(in.remaining()) + " bytes left)");
    }
    const std::size_t rows_before = table.rows.size();
    Row& row = table.rows[table.find_or_add(key)];
    if (table.rows.size() == rows_before) {
      throw bad("duplicate Q-table key in payload");
    }
    row.size = row.cap = count;
    table.entries.resize(row.begin + std::size_t{count});
    for (std::uint32_t j = 0; j < count; ++j) {
      const std::size_t action = in.u32();
      const double q = in.f64();
      if (action >= config_.num_actions ||
          (j > 0 && action <= table.entries[row.begin + j - 1].action)) {
        throw bad("Q row actions out of range or not strictly ascending");
      }
      // A written table never stores +0.0 (it reads as absent), so only
      // one payload encodes each table.
      if (std::bit_cast<std::uint64_t>(q) == 0) {
        throw bad("Q row stores +0.0");
      }
      table.entries[row.begin + j] = {action, q};
    }
  }
  rng_ = rng;
  steps_ = static_cast<std::size_t>(steps);
  table_ = std::move(table);
}

}  // namespace ctj::rl
