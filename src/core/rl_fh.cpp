#include "core/rl_fh.hpp"

#include "common/check.hpp"

namespace ctj::core {

rl::DqnConfig DqnScheme::make_dqn_config(const Config& config) {
  rl::DqnConfig dqn;
  dqn.state_dim = 3 * config.history;
  dqn.num_actions = static_cast<std::size_t>(config.num_channels) *
                    config.num_power_levels;
  dqn.hidden = config.hidden;
  dqn.learning_rate = config.learning_rate;
  dqn.gamma = config.gamma;
  dqn.epsilon_start = config.epsilon_start;
  dqn.epsilon_end = config.epsilon_end;
  dqn.epsilon_decay_steps = config.epsilon_decay_steps;
  dqn.double_dqn = config.double_dqn;
  dqn.target_sync_interval = config.target_sync_interval;
  dqn.target_tau = config.target_tau;
  dqn.seed = config.seed;
  return dqn;
}

DqnScheme::DqnScheme(const Config& config)
    : config_(config),
      agent_(make_dqn_config(config)),
      shell_(config.history, config.num_channels, config.num_power_levels,
             config.training, config.seed ^ 0xD09ULL) {
  CTJ_CHECK(config.deploy_epsilon >= 0.0 && config.deploy_epsilon < 1.0);
  CTJ_CHECK(config.num_channels >= 2);
  CTJ_CHECK(config.num_power_levels > 0);
  CTJ_CHECK(config.history > 0);
}

void DqnScheme::set_deploy_epsilon(double epsilon) {
  CTJ_CHECK(epsilon >= 0.0 && epsilon < 1.0);
  config_.deploy_epsilon = epsilon;
}

void DqnScheme::reset() { shell_.reset(); }

std::vector<double> DqnScheme::observation() const {
  const std::span<const double> obs = shell_.observation();
  return {obs.begin(), obs.end()};
}

SchemeDecision DqnScheme::decide() {
  return shell_.decide(agent_, config_.deploy_epsilon);
}

void DqnScheme::feedback(const SlotFeedback& feedback) {
  shell_.feedback(feedback, [&](std::vector<double>& state,
                                std::size_t action,
                                std::span<const double> next_state) {
    rl::Transition transition;
    transition.state = std::move(state);
    transition.action = action;
    transition.reward = feedback.reward;
    transition.next_state.assign(next_state.begin(), next_state.end());
    transition.done = false;  // continuing competition
    agent_.observe(std::move(transition));
  });
}

void DqnScheme::save_state(io::ContainerWriter& out) const {
  io::ByteWriter cfg;
  cfg.i32(config_.num_channels);
  cfg.u64(config_.num_power_levels);
  cfg.u64(config_.history);
  cfg.u8(config_.training ? 1 : 0);
  cfg.f64(config_.deploy_epsilon);
  cfg.f64(config_.learning_rate);
  cfg.f64(config_.gamma);
  cfg.f64(config_.epsilon_start);
  cfg.f64(config_.epsilon_end);
  cfg.u64(config_.epsilon_decay_steps);
  cfg.u64(config_.hidden.size());
  for (std::size_t h : config_.hidden) cfg.u64(h);
  cfg.u8(config_.double_dqn ? 1 : 0);
  cfg.u64(config_.target_sync_interval);
  cfg.f64(config_.target_tau);
  cfg.u64(config_.seed);
  out.add_chunk(io::tags::kSchemeCfg, cfg.take());

  io::ByteWriter state;
  shell_.save_state(state);
  out.add_chunk(io::tags::kSchemeState, state.take());

  agent_.save_state(out);
}

DqnScheme::Config DqnScheme::read_config(const io::ContainerReader& in) {
  io::ByteReader cfg(in.chunk(io::tags::kSchemeCfg));
  Config config;
  config.num_channels = cfg.i32();
  config.num_power_levels = static_cast<std::size_t>(cfg.u64());
  config.history = static_cast<std::size_t>(cfg.u64());
  config.training = cfg.u8() != 0;
  config.deploy_epsilon = cfg.f64();
  config.learning_rate = cfg.f64();
  config.gamma = cfg.f64();
  config.epsilon_start = cfg.f64();
  config.epsilon_end = cfg.f64();
  config.epsilon_decay_steps = static_cast<std::size_t>(cfg.u64());
  const std::uint64_t hidden_count = cfg.u64();
  if (hidden_count > 1024) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "implausible hidden layer count " +
                          std::to_string(hidden_count));
  }
  config.hidden.clear();
  for (std::uint64_t i = 0; i < hidden_count; ++i) {
    config.hidden.push_back(static_cast<std::size_t>(cfg.u64()));
  }
  config.double_dqn = cfg.u8() != 0;
  config.target_sync_interval = static_cast<std::size_t>(cfg.u64());
  config.target_tau = cfg.f64();
  config.seed = cfg.u64();
  cfg.expect_end();
  return config;
}

void DqnScheme::load_state(const io::ContainerReader& in) {
  const Config stored = read_config(in);
  // `training` is runtime state (set_training flips it after construction),
  // restored from SCHMST below; every constructive field must match.
  if (stored.num_channels != config_.num_channels ||
      stored.num_power_levels != config_.num_power_levels ||
      stored.history != config_.history ||
      stored.deploy_epsilon != config_.deploy_epsilon ||
      stored.learning_rate != config_.learning_rate ||
      stored.gamma != config_.gamma ||
      stored.epsilon_start != config_.epsilon_start ||
      stored.epsilon_end != config_.epsilon_end ||
      stored.epsilon_decay_steps != config_.epsilon_decay_steps ||
      stored.hidden != config_.hidden ||
      stored.double_dqn != config_.double_dqn ||
      stored.target_sync_interval != config_.target_sync_interval ||
      stored.target_tau != config_.target_tau ||
      stored.seed != config_.seed) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "checkpoint DqnScheme::Config differs from this scheme");
  }

  io::ByteReader state(in.chunk(io::tags::kSchemeState));
  PolicyShell::Decoded shell =
      shell_.decode_state(state, agent_.config().num_actions);
  state.expect_end();

  // The agent loader keeps the strong guarantee itself; putting it last
  // means nothing above has mutated the scheme yet either.
  agent_.load_state(in);
  shell_.commit(std::move(shell));
}

}  // namespace ctj::core
