#include "core/qlearning_scheme.hpp"

#include "common/check.hpp"

namespace ctj::core {
namespace {

rl::QLearningConfig make_agent_config(const QLearningScheme::Config& config) {
  rl::QLearningConfig agent;
  agent.state_dim = 3 * config.history;
  agent.num_actions = static_cast<std::size_t>(config.num_channels) *
                      config.num_power_levels;
  agent.bins_per_dim = config.bins_per_dim;
  agent.learning_rate = config.learning_rate;
  agent.gamma = config.gamma;
  agent.epsilon_start = config.epsilon_start;
  agent.epsilon_end = config.epsilon_end;
  agent.epsilon_decay_steps = config.epsilon_decay_steps;
  agent.seed = config.seed;
  return agent;
}

}  // namespace

QLearningScheme::QLearningScheme(const Config& config)
    : config_(config),
      agent_(make_agent_config(config)),
      shell_(config.history, config.num_channels, config.num_power_levels,
             /*training=*/true, config.seed ^ 0x91ULL) {
  CTJ_CHECK(config.num_channels >= 2);
  CTJ_CHECK(config.num_power_levels > 0);
  CTJ_CHECK(config.history > 0);
}

void QLearningScheme::reset() { shell_.reset(); }

SchemeDecision QLearningScheme::decide() {
  return shell_.decide(agent_, config_.deploy_epsilon);
}

void QLearningScheme::feedback(const SlotFeedback& feedback) {
  shell_.feedback(feedback, [&](const std::vector<double>& state,
                                std::size_t action,
                                std::span<const double> next_state) {
    agent_.update(state, action, feedback.reward, next_state);
  });
}

void QLearningScheme::save_state(io::ByteWriter& out) const {
  out.i32(config_.num_channels);
  out.u64(config_.num_power_levels);
  out.u64(config_.history);
  out.u64(config_.bins_per_dim);
  out.f64(config_.learning_rate);
  out.f64(config_.gamma);
  out.f64(config_.epsilon_start);
  out.f64(config_.epsilon_end);
  out.u64(config_.epsilon_decay_steps);
  out.f64(config_.deploy_epsilon);
  out.u64(config_.seed);

  shell_.save_state(out);
  agent_.save_state(out);
}

void QLearningScheme::load_state(io::ByteReader& in) {
  const auto num_channels = in.i32();
  const auto num_power_levels = static_cast<std::size_t>(in.u64());
  const auto history_len = static_cast<std::size_t>(in.u64());
  const auto bins = static_cast<std::size_t>(in.u64());
  const double lr = in.f64();
  const double gamma = in.f64();
  const double eps_start = in.f64();
  const double eps_end = in.f64();
  const auto decay = static_cast<std::size_t>(in.u64());
  const double deploy_eps = in.f64();
  const std::uint64_t seed = in.u64();
  if (num_channels != config_.num_channels ||
      num_power_levels != config_.num_power_levels ||
      history_len != config_.history || bins != config_.bins_per_dim ||
      lr != config_.learning_rate || gamma != config_.gamma ||
      eps_start != config_.epsilon_start || eps_end != config_.epsilon_end ||
      decay != config_.epsilon_decay_steps ||
      deploy_eps != config_.deploy_epsilon || seed != config_.seed) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "stored QLearningScheme::Config differs from this "
                      "scheme");
  }

  PolicyShell::Decoded shell =
      shell_.decode_state(in, agent_.config().num_actions);

  // The agent loader keeps the strong guarantee itself; loading it last
  // means nothing above has mutated the scheme when it throws.
  agent_.load_state(in);
  shell_.commit(std::move(shell));
}

}  // namespace ctj::core
