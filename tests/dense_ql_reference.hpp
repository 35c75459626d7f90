// The dense-table tabular Q-learner, transcribed as a test reference for
// rl::QLearningAgent, which keeps only the written actions of each row.
// Every row here is a full num_actions vector: act_greedy is argmax
// (std::max_element) of the row and update bootstraps from the row's
// std::max_element, exactly as the agent must behave. The QLSTATE v2 bytes
// are the agent's: version, RNG state, step count, row count, then per row
// in first-write order the key, the count of values whose bits are not
// +0.0, and those values as (action, q) pairs, actions ascending.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "io/bytes.hpp"
#include "rl/qlearning.hpp"

namespace ctj::rl {

struct DenseQlReference {
  explicit DenseQlReference(QLearningConfig c) : config(c), rng(c.seed) {}

  std::uint64_t key_of(std::span<const double> state) const {
    std::uint64_t key = 1469598103934665603ULL;
    for (double v : state) {
      const double clamped = std::min(1.0, std::max(0.0, v));
      auto bin = static_cast<std::uint64_t>(
          clamped * static_cast<double>(config.bins_per_dim));
      bin = std::min<std::uint64_t>(bin, config.bins_per_dim - 1);
      key ^= bin + 0x9e3779b97f4a7c15ULL;
      key *= 1099511628211ULL;
    }
    return key;
  }

  double epsilon() const {
    if (config.epsilon_decay_steps == 0) return config.epsilon_end;
    const double frac =
        std::min(1.0, static_cast<double>(steps) /
                          static_cast<double>(config.epsilon_decay_steps));
    return config.epsilon_start +
           frac * (config.epsilon_end - config.epsilon_start);
  }

  std::size_t act_greedy(std::span<const double> state) const {
    const auto it = table.find(key_of(state));
    return it == table.end() ? 0 : argmax(it->second);
  }

  std::size_t act(std::span<const double> state) {
    const std::size_t best = act_greedy(state);
    if (!rng.bernoulli(epsilon())) return best;
    std::size_t other = rng.index(config.num_actions - 1);
    if (other >= best) ++other;
    return other;
  }

  void update(std::span<const double> state, std::size_t action,
              double reward, std::span<const double> next_state) {
    const auto next = table.find(key_of(next_state));
    const double max_next =
        next == table.end()
            ? 0.0
            : *std::max_element(next->second.begin(), next->second.end());
    std::vector<double>& q = row(key_of(state));
    const double target =
        reward * config.reward_scale + config.gamma * max_next;
    q[action] += config.learning_rate * (target - q[action]);
    ++steps;
  }

  /// The row of `key`, created all-zero (and recorded in `order`) on its
  /// first write.
  std::vector<double>& row(std::uint64_t key) {
    const auto [it, added] = table.try_emplace(key, config.num_actions, 0.0);
    if (added) order.push_back(key);
    return it->second;
  }

  void save_state(io::ByteWriter& out) const {
    out.u32(QLearningAgent::kStateVersion);
    out.str(rng.serialize_state());
    out.u64(steps);
    out.u64(order.size());
    for (const std::uint64_t key : order) {
      const std::vector<double>& q = table.at(key);
      const auto stored = [](double v) {
        return std::bit_cast<std::uint64_t>(v) != 0;
      };
      out.u64(key);
      out.u32(static_cast<std::uint32_t>(
          std::count_if(q.begin(), q.end(), stored)));
      for (std::size_t a = 0; a < q.size(); ++a) {
        if (!stored(q[a])) continue;
        out.u32(static_cast<std::uint32_t>(a));
        out.f64(q[a]);
      }
    }
  }

  void load_state(io::ByteReader& in) {
    in.u32();  // version
    rng.restore_state(in.str());
    steps = in.u64();
    table.clear();
    order.clear();
    for (std::uint64_t n = in.u64(); n > 0; --n) {
      std::vector<double>& q = row(in.u64());
      for (std::uint32_t m = in.u32(); m > 0; --m) {
        const std::uint32_t a = in.u32();
        q.at(a) = in.f64();
      }
    }
  }

  QLearningConfig config;
  Rng rng;
  std::unordered_map<std::uint64_t, std::vector<double>> table;
  std::vector<std::uint64_t> order;  // table keys, first write first
  std::size_t steps = 0;
};

}  // namespace ctj::rl
