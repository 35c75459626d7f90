#include "rl/qlearning.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

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

QLearningAgent::Entry QLearningAgent::greedy(
    std::span<const double> state) const {
  const auto it = table_.find(key_of(state));
  if (it == table_.end()) return {0, 0.0};
  const Row& row = it->second;
  // std::max_element on the dense row starts at action 0 and moves to a
  // later action only if best.q < q. Of the absent actions (+0.0) only the
  // first can move it: once a +0.0 has been compared, !(best.q < 0.0)
  // holds (best.q >= 0.0 or NaN), and each later move keeps it. So scan
  // the stored entries plus the first absent action, in action order,
  // starting from action 0 (stored or absent; rescanning it moves nothing).
  Entry best{0, !row.empty() && row.front().action == 0 ? row.front().q : 0.0};
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
  return greedy(state).action;
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
  using Slot = decltype(table_)::value_type;
  std::vector<const Slot*> rows;
  rows.reserve(table_.size());
  for (const Slot& slot : table_) rows.push_back(&slot);
  std::sort(rows.begin(), rows.end(),
            [](const Slot* a, const Slot* b) { return a->first < b->first; });
  // Count, then per row a key, a length and the row written dense through
  // one reused scratch row (2.4 MB after 2 048 slots: one allocation for a
  // spool, none for a digest writer).
  out.reserve(8 + rows.size() * (16 + 8 * config_.num_actions));
  out.u64(rows.size());
  std::vector<double> dense(config_.num_actions, 0.0);
  for (const Slot* slot : rows) {
    out.u64(slot->first);
    for (const Entry& e : slot->second) dense[e.action] = e.q;
    out.f64_vec(dense);
    for (const Entry& e : slot->second) dense[e.action] = 0.0;
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
  std::unordered_map<std::uint64_t, Row> table;
  // The count is untrusted: reserve no more entries than the payload can
  // hold (a key, a length and num_actions doubles each).
  table.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      entries, in.remaining() / (16 + 8 * config_.num_actions))));
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::uint64_t key = in.u64();
    const std::vector<double> dense = in.f64_vec();
    if (dense.size() != config_.num_actions) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        "Q row has " + std::to_string(dense.size()) +
                            " actions, agent expects " +
                            std::to_string(config_.num_actions));
    }
    // Only the bits of +0.0 read back as an absent action: -0.0, NaN and
    // subnormals are stored, so they round-trip. A row of zeros stays a row.
    Row row;
    for (std::size_t a = 0; a < dense.size(); ++a) {
      if (std::bit_cast<std::uint64_t>(dense[a]) != 0) {
        row.push_back({a, dense[a]});
      }
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
  const double max_next = greedy(next_state).q;
  Row& row = table_[key_of(state)];
  auto it = std::lower_bound(
      row.begin(), row.end(), action,
      [](const Entry& e, std::size_t a) { return e.action < a; });
  if (it == row.end() || it->action != action) {
    it = row.insert(it, {action, 0.0});
  }
  double& q = it->q;
  const double target = reward * config_.reward_scale + config_.gamma * max_next;
  q += config_.learning_rate * (target - q);
  ++steps_;
}

}  // namespace ctj::rl
