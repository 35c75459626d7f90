#include "core/vector_env.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ctj::core {

namespace {

EnvironmentConfig replica_config(EnvironmentConfig config, std::size_t r) {
  config.seed += static_cast<std::uint64_t>(r);
  return config;
}

}  // namespace

VectorEnv::VectorEnv(const EnvironmentConfig& config, std::size_t replicas)
    : config_(config) {
  CTJ_CHECK_MSG(replicas > 0, "a VectorEnv needs at least one replica");
  envs_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    envs_.emplace_back(replica_config(config, r));
  }
  rewards_.resize(replicas, 0.0);
  successes_.resize(replicas, 0);
  jammed_.resize(replicas, 0);
  hopped_.resize(replicas, 0);
  channels_.resize(replicas, 0);
  outcomes_.resize(replicas, SlotOutcome::kClear);
}

void VectorEnv::step(std::span<const int> channels,
                     std::span<const std::size_t> power_indices) {
  CTJ_CHECK(channels.size() == envs_.size());
  CTJ_CHECK(power_indices.size() == envs_.size());
  for (std::size_t r = 0; r < envs_.size(); ++r) {
    const EnvStep step = envs_[r].step(channels[r], power_indices[r]);
    rewards_[r] = step.reward;
    successes_[r] = step.success ? 1 : 0;
    jammed_[r] = step.outcome != SlotOutcome::kClear ? 1 : 0;
    hopped_[r] = step.hopped ? 1 : 0;
    channels_[r] = step.channel;
    outcomes_[r] = step.outcome;
  }
}

CompetitionEnvironment& VectorEnv::env(std::size_t r) {
  CTJ_CHECK(r < envs_.size());
  return envs_[r];
}

const CompetitionEnvironment& VectorEnv::env(std::size_t r) const {
  CTJ_CHECK(r < envs_.size());
  return envs_[r];
}

void VectorEnv::reset() {
  for (auto& env : envs_) env.reset();
}

void VectorEnv::save_state(io::ByteWriter& out) const {
  out.u64(envs_.size());
  for (const auto& env : envs_) env.save_state(out);
}

void VectorEnv::load_state(io::ByteReader& in) {
  const std::uint64_t replicas = in.u64();
  if (replicas != envs_.size()) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "checkpoint has " + std::to_string(replicas) +
                          " environment replicas, VectorEnv has " +
                          std::to_string(envs_.size()));
  }
  // Restore into a copy so a failure on any replica leaves all unchanged.
  std::vector<CompetitionEnvironment> restored = envs_;
  for (auto& env : restored) env.load_state(in);
  envs_ = std::move(restored);
}

DqnRollout::DqnRollout(const EnvironmentConfig& env_config,
                       const DqnScheme::Config& scheme_config,
                       std::size_t replicas)
    : venv_(env_config, replicas),
      windows_(replicas, scheme_config.history, scheme_config.num_channels,
               scheme_config.num_power_levels),
      power_levels_(scheme_config.num_power_levels),
      actions_(replicas),
      channels_(replicas),
      powers_(replicas),
      pre_(replicas, 3 * scheme_config.history) {}

rl::Transition DqnRollout::transition(std::size_t r) const {
  rl::Transition transition;
  const auto state = pre_state(r);
  transition.state.assign(state.begin(), state.end());
  transition.action = actions_[r];
  transition.reward = venv_.rewards()[r];
  const auto next_state = windows_.row(r);
  transition.next_state.assign(next_state.begin(), next_state.end());
  transition.done = false;  // continuing competition
  return transition;
}

void DqnRollout::save_state(io::ContainerWriter& out) const {
  io::ByteWriter env_out;
  venv_.save_state(env_out);
  out.add_chunk(io::tags::kEnvState, env_out.take());
  io::ByteWriter win_out;
  windows_.save_state(win_out);
  out.add_chunk(io::tags::kObsWindows, win_out.take());
}

void DqnRollout::load_state(const io::ContainerReader& in) {
  io::ByteReader env_in(in.chunk(io::tags::kEnvState));
  venv_.load_state(env_in);
  env_in.expect_end();
  io::ByteReader win_in(in.chunk(io::tags::kObsWindows));
  windows_.load_state(win_in);
  win_in.expect_end();
}

}  // namespace ctj::core
