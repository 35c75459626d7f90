#include "rl/qlearning.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace ctj::rl {

QLearningAgent::QLearningAgent(QLearningConfig config)
    : config_(config), rng_(config.seed) {
  CTJ_CHECK(config.state_dim > 0);
  CTJ_CHECK(config.num_actions >= 2);
  CTJ_CHECK(config.bins_per_dim >= 2);
  CTJ_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);
}

std::uint64_t QLearningAgent::key_of(std::span<const double> state) const {
  CTJ_CHECK(state.size() == config_.state_dim);
  // FNV-style rolling hash of the per-dimension bin indices. Observations
  // are expected in [0, 1]; out-of-range values clamp to the edge bins.
  std::uint64_t key = 1469598103934665603ULL;
  for (double v : state) {
    const double clamped = std::min(1.0, std::max(0.0, v));
    auto bin = static_cast<std::uint64_t>(
        clamped * static_cast<double>(config_.bins_per_dim));
    bin = std::min<std::uint64_t>(bin, config_.bins_per_dim - 1);
    key ^= bin + 0x9e3779b97f4a7c15ULL;
    key *= 1099511628211ULL;
  }
  return key;
}

double QLearningAgent::epsilon() const {
  if (config_.epsilon_decay_steps == 0) return config_.epsilon_end;
  const double frac =
      std::min(1.0, static_cast<double>(steps_) /
                        static_cast<double>(config_.epsilon_decay_steps));
  return config_.epsilon_start +
         frac * (config_.epsilon_end - config_.epsilon_start);
}

std::size_t QLearningAgent::act_greedy(std::span<const double> state) const {
  // No row is an all-zero row, whose argmax is the first action.
  const auto it = table_.find(key_of(state));
  return it == table_.end() ? 0 : argmax(it->second);
}

std::size_t QLearningAgent::act(std::span<const double> state) {
  const std::size_t best = act_greedy(state);
  if (!rng_.bernoulli(epsilon())) return best;
  std::size_t other = rng_.index(config_.num_actions - 1);
  if (other >= best) ++other;
  return other;
}

void QLearningAgent::save_state(io::ByteWriter& out) const {
  out.str(rng_.serialize_state());
  out.u64(steps_);
  using Entry = decltype(table_)::value_type;
  std::vector<const Entry*> rows;
  rows.reserve(table_.size());
  for (const Entry& entry : table_) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(),
            [](const Entry* a, const Entry* b) { return a->first < b->first; });
  // The table is most of a QL state (2.4 MB after 2 048 slots): write it
  // into one allocation. Count, then per row a key, a length and the row.
  out.reserve(8 + rows.size() * (16 + 8 * config_.num_actions));
  out.u64(rows.size());
  for (const Entry* entry : rows) {
    out.u64(entry->first);
    out.f64_vec(entry->second);
  }
}

void QLearningAgent::load_state(io::ByteReader& in) {
  const std::string rng_text = in.str();
  Rng rng;
  try {
    rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "QL agent RNG state");
  }
  const std::uint64_t steps = in.u64();
  const std::uint64_t entries = in.u64();
  std::unordered_map<std::uint64_t, std::vector<double>> table;
  // The count is untrusted: reserve no more entries than the payload can
  // hold (a key, a length and num_actions doubles each).
  table.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      entries, in.remaining() / (16 + 8 * config_.num_actions))));
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::uint64_t key = in.u64();
    std::vector<double> row = in.f64_vec();
    if (row.size() != config_.num_actions) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        "Q row has " + std::to_string(row.size()) +
                            " actions, agent expects " +
                            std::to_string(config_.num_actions));
    }
    if (!table.emplace(key, std::move(row)).second) {
      throw io::IoError(io::ErrorKind::kBadPayload,
                        "duplicate Q-table key in payload");
    }
  }
  rng_ = rng;
  steps_ = static_cast<std::size_t>(steps);
  table_ = std::move(table);
}

void QLearningAgent::update(std::span<const double> state, std::size_t action,
                            double reward,
                            std::span<const double> next_state) {
  CTJ_CHECK(action < config_.num_actions);
  // No row for s' is an all-zero row, whose maximum is 0.0.
  const auto next = table_.find(key_of(next_state));
  const double max_next =
      next == table_.end()
          ? 0.0
          : *std::max_element(next->second.begin(), next->second.end());
  std::vector<double>& q =
      table_.try_emplace(key_of(state), config_.num_actions, 0.0).first->second;
  const double target = reward * config_.reward_scale + config_.gamma * max_next;
  q[action] += config_.learning_rate * (target - q[action]);
  ++steps_;
}

}  // namespace ctj::rl
