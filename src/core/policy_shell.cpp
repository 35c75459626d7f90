#include "core/policy_shell.hpp"

#include <string>

#include "common/check.hpp"

namespace ctj::core {

PolicyShell::PolicyShell(std::size_t history, int num_channels,
                         std::size_t num_power_levels, bool training,
                         std::uint64_t deploy_seed)
    : window_(1, history, num_channels, num_power_levels),
      power_levels_(num_power_levels),
      deploy_rng_(deploy_seed),
      training_(training) {}

void PolicyShell::reset() {
  window_.reset();
  has_pending_ = false;
}

void PolicyShell::save_state(io::ByteWriter& out) const {
  out.u8(training_ ? 1 : 0);
  out.str(deploy_rng_.serialize_state());
  out.u64(window_.history());
  out.f64_array(observation());
  out.u8(has_pending_ ? 1 : 0);
  out.f64_vec(pending_state_);
  out.u64(pending_action_);
}

PolicyShell::Decoded PolicyShell::decode_state(io::ByteReader& in,
                                               std::size_t num_actions) const {
  Decoded state;
  state.training = in.u8() != 0;
  const std::string rng_text = in.str();
  try {
    state.deploy_rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "scheme deploy RNG state");
  }
  const std::uint64_t records = in.u64();
  if (records != window_.history()) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "stored window has " + std::to_string(records) +
                          " records, scheme history is " +
                          std::to_string(window_.history()));
  }
  state.window.resize(3 * window_.history());
  in.f64_array(state.window);
  state.has_pending = in.u8() != 0;
  state.pending_state = in.f64_vec();
  const std::uint64_t pending_action = in.u64();
  if (state.has_pending && state.pending_state.size() != state.window.size()) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "pending state has the wrong dimension");
  }
  if (state.has_pending && pending_action >= num_actions) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "pending action out of range");
  }
  state.pending_action = static_cast<std::size_t>(pending_action);
  return state;
}

void PolicyShell::commit(Decoded&& state) {
  training_ = state.training;
  deploy_rng_ = state.deploy_rng;
  window_.set_row(0, state.window);
  pending_state_ = std::move(state.pending_state);
  pending_action_ = state.pending_action;
  has_pending_ = state.has_pending;
}

}  // namespace ctj::core
