#include "rl/dqn.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "common/math_util.hpp"

namespace ctj::rl {
namespace {

std::vector<std::size_t> layer_sizes(const DqnConfig& config) {
  std::vector<std::size_t> sizes;
  sizes.push_back(config.state_dim);
  sizes.insert(sizes.end(), config.hidden.begin(), config.hidden.end());
  sizes.push_back(config.num_actions);
  return sizes;
}

}  // namespace

DqnAgent::DqnAgent(DqnConfig config)
    : config_(config),
      rng_(config.seed),
      online_(layer_sizes(config), rng_),
      target_(layer_sizes(config), rng_),
      optimizer_(online_, {.lr = config.learning_rate,
                           .beta1 = 0.9,
                           .beta2 = 0.999,
                           .epsilon = 1e-8}),
      replay_(config.replay_capacity, config.state_dim, config.num_actions) {
  CTJ_CHECK(config.num_actions >= 2);
  CTJ_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);
  CTJ_CHECK(config.target_tau >= 0.0 && config.target_tau <= 1.0);
  CTJ_CHECK(config.epsilon_start >= config.epsilon_end);
  CTJ_CHECK(config.batch_size > 0);
  target_.copy_parameters_from(online_);
}

double DqnAgent::epsilon() const {
  if (config_.epsilon_decay_steps == 0) return config_.epsilon_end;
  const double frac =
      std::min(1.0, static_cast<double>(env_steps_) /
                        static_cast<double>(config_.epsilon_decay_steps));
  return config_.epsilon_start +
         frac * (config_.epsilon_end - config_.epsilon_start);
}

std::vector<double> DqnAgent::q_values(std::span<const double> state) const {
  CTJ_CHECK_MSG(state.size() == config_.state_dim,
                "state dim " << state.size() << " != " << config_.state_dim);
  infer_in_.resize(1, config_.state_dim);
  std::copy(state.begin(), state.end(), infer_in_.data());
  online_.forward_scratch(infer_in_, infer_q_, infer_a_, infer_b_);
  return {infer_q_.data(), infer_q_.data() + infer_q_.cols()};
}

std::size_t DqnAgent::act_greedy(std::span<const double> state) const {
  CTJ_CHECK_MSG(state.size() == config_.state_dim,
                "state dim " << state.size() << " != " << config_.state_dim);
  // Same forward as q_values(), but through the scratch matrices end to end
  // — no temporary row matrix, no returned vector, no allocation at all
  // once the scratch is warm.
  infer_in_.resize(1, config_.state_dim);
  std::copy(state.begin(), state.end(), infer_in_.data());
  online_.forward_scratch(infer_in_, infer_q_, infer_a_, infer_b_);
  return kern::ops().row_argmax(infer_q_.data(), config_.num_actions);
}

void DqnAgent::q_values_batch(const Matrix& states, Matrix& q_out) const {
  CTJ_CHECK_MSG(states.cols() == config_.state_dim,
                "state dim " << states.cols() << " != " << config_.state_dim);
  online_.forward_scratch(states, q_out, infer_a_, infer_b_);
}

void DqnAgent::act_greedy_batch(const Matrix& states,
                                std::span<std::size_t> actions_out) const {
  CTJ_CHECK(actions_out.size() == states.rows());
  q_values_batch(states, infer_q_);
  const auto& kernels = kern::ops();
  for (std::size_t i = 0; i < states.rows(); ++i) {
    actions_out[i] = kernels.row_argmax(
        infer_q_.data() + i * config_.num_actions, config_.num_actions);
  }
}

void DqnAgent::act_batch(const Matrix& states,
                         std::span<std::size_t> actions_out) {
  act_greedy_batch(states, actions_out);
  const double eps = epsilon();
  if (eps <= 0.0) return;
  for (std::size_t i = 0; i < actions_out.size(); ++i) {
    if (rng_.bernoulli(eps)) actions_out[i] = rng_.index(config_.num_actions);
  }
}

std::size_t DqnAgent::act(std::span<const double> state) {
  const double eps = epsilon();
  // Textbook ε-greedy (Sec. III.C): explore uniformly over the whole C·PL
  // action set with probability ε, so the greedy action is selected with
  // probability 1 − ε + ε/(C·PL) and every other action with ε/(C·PL).
  if (rng_.bernoulli(eps)) return rng_.index(config_.num_actions);
  return act_greedy(state);
}

void DqnAgent::observe(const Transition& transition) {
  CTJ_CHECK(transition.state.size() == config_.state_dim);
  CTJ_CHECK(transition.next_state.size() == config_.state_dim);
  CTJ_CHECK(transition.action < config_.num_actions);
  const std::size_t slot = replay_.push(transition);
  if (slot < bootstrap_cache_.size()) bootstrap_cache_[slot].epoch = 0;
  ++env_steps_;
  train_step();
}

std::optional<double> DqnAgent::train_step() {
  if (replay_.size() < config_.min_replay_before_training) return std::nullopt;
  replay_.sample_into(config_.batch_size, rng_, batch_);
  return learn(batch_.states, batch_.next_states, batch_.actions,
               batch_.rewards, batch_.dones, batch_.slots);
}

double DqnAgent::train_on_batch(const Matrix& states, const Matrix& next_states,
                                std::span<const std::size_t> actions,
                                std::span<const double> rewards,
                                std::span<const std::uint8_t> dones) {
  return learn(states, next_states, actions, rewards, dones, {});
}

void DqnAgent::bootstrap(const Matrix& next_states,
                         std::span<const std::size_t> slots) {
  const std::size_t B = next_states.rows(), A = config_.num_actions;
  const auto& kernels = kern::ops();
  next_v_.resize(B);
  if (config_.double_dqn) {
    // The online network selects the bootstrap action, the target network
    // evaluates only that entry: forward_taken's entry is the dense
    // forward's bit for bit.
    online_.forward_scratch(next_states, next_q_, infer_a_, infer_b_);
    next_act_.resize(B);
    for (std::size_t i = 0; i < B; ++i) {
      next_act_[i] = kernels.row_argmax(next_q_.data() + i * A, A);
    }
    target_.forward_taken(next_states, next_act_, next_v_);
    return;
  }
  stale_rows_.clear();
  for (std::size_t i = 0; i < B; ++i) {
    if (!slots.empty() && slots[i] < bootstrap_cache_.size() &&
        bootstrap_cache_[slots[i]].epoch == target_epoch_) {
      next_v_[i] = bootstrap_cache_[slots[i]].value;
    } else {
      stale_rows_.push_back(i);
    }
  }
  const std::size_t n = stale_rows_.size();
  if (n == 0) return;
  // The forward is row-independent, so a compacted row gets the bits it
  // would get in the full batch.
  const Matrix* in = &next_states;
  if (n < B) {
    const std::size_t dim = config_.state_dim;
    stale_next_.resize(n, dim);
    for (std::size_t j = 0; j < n; ++j) {
      const double* src = next_states.data() + stale_rows_[j] * dim;
      std::copy(src, src + dim, stale_next_.data() + j * dim);
    }
    in = &stale_next_;
  }
  target_.forward_scratch(*in, next_q_, infer_a_, infer_b_);
  if (!slots.empty() && bootstrap_cache_.size() < replay_.size()) {
    bootstrap_cache_.resize(replay_.size());
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = stale_rows_[j];
    next_v_[i] = kernels.row_max(next_q_.data() + j * A, A);
    if (!slots.empty()) {
      bootstrap_cache_[slots[i]] = {next_v_[i], target_epoch_};
    }
  }
}

double DqnAgent::learn(const Matrix& states, const Matrix& next_states,
                       std::span<const std::size_t> actions,
                       std::span<const double> rewards,
                       std::span<const std::uint8_t> dones,
                       std::span<const std::size_t> slots) {
  const std::size_t B = states.rows();
  CTJ_CHECK(B > 0);
  CTJ_CHECK(states.cols() == config_.state_dim);
  CTJ_CHECK(next_states.rows() == B &&
            next_states.cols() == config_.state_dim);
  CTJ_CHECK(actions.size() == B && rewards.size() == B && dones.size() == B);
  CTJ_CHECK(slots.empty() || slots.size() == B);

  bootstrap(next_states, slots);
  q_taken_.resize(B);
  online_.forward_taken(states, actions, q_taken_);

  // Fused batched TD-target + Huber kernel: TD error on the taken actions,
  // one Huber-clipped gradient per row; the reported loss is the Huber
  // objective those gradients actually optimize.
  kern::TdHuberArgs td;
  td.q_taken = q_taken_.data();
  td.next_v = next_v_.data();
  td.rewards = rewards.data();
  td.dones = dones.data();
  td.gamma = config_.gamma;
  td.reward_scale = config_.reward_scale;
  td.grad_div = static_cast<double>(B);
  td.batch = B;
  td_grad_.resize(B);
  const double loss = kern::td_huber_batch(td, td_grad_.data());

  // No zero_grad(): the previous step's Adam update consumed the gradients,
  // and a new network starts at zero.
  online_.backward_taken(actions, td_grad_);
  optimizer_.step(online_);
  ++grad_steps_;
  if (config_.target_tau > 0.0) {
    target_.lerp_parameters_from(online_, config_.target_tau);
    ++target_epoch_;
  } else if (config_.target_sync_interval > 0 &&
             grad_steps_ % config_.target_sync_interval == 0) {
    target_.copy_parameters_from(online_);
    ++target_epoch_;
  }
  return loss / static_cast<double>(B);
}

namespace {

// The AGCNTRS chunk carries the step counters plus a digest of every
// DqnConfig field that shapes the serialized state, so a checkpoint can
// never be restored into an agent with a different architecture or training
// schedule without a typed kStateMismatch.
void write_counters(io::ByteWriter& out, const DqnConfig& config,
                    std::size_t env_steps, std::size_t grad_steps) {
  out.u64(env_steps);
  out.u64(grad_steps);
  out.u64(config.state_dim);
  out.u64(config.num_actions);
  out.u64(config.hidden.size());
  for (std::size_t h : config.hidden) out.u64(h);
  out.f64(config.learning_rate);
  out.f64(config.gamma);
  out.f64(config.reward_scale);
  out.f64(config.epsilon_start);
  out.f64(config.epsilon_end);
  out.u64(config.epsilon_decay_steps);
  out.u64(config.batch_size);
  out.u64(config.replay_capacity);
  out.u64(config.min_replay_before_training);
  out.u64(config.target_sync_interval);
  out.f64(config.target_tau);
  // The train_every slot, gradient steps per observed transition: always 1,
  // kept so checkpoint bytes stay the same and older checkpoints load.
  out.u64(1);
  out.u8(config.double_dqn ? 1 : 0);
  out.u64(config.seed);
}

struct Counters {
  std::uint64_t env_steps = 0;
  std::uint64_t grad_steps = 0;
  std::uint64_t seed = 0;
};

Counters read_counters(io::ByteReader& in, const DqnConfig& config,
                       bool adopt_seed) {
  Counters counters;
  counters.env_steps = in.u64();
  counters.grad_steps = in.u64();

  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint DqnConfig differs in " + what);
  };
  if (in.u64() != config.state_dim) throw mismatch("state_dim");
  if (in.u64() != config.num_actions) throw mismatch("num_actions");
  if (in.u64() != config.hidden.size()) throw mismatch("hidden layer count");
  for (std::size_t h : config.hidden) {
    if (in.u64() != h) throw mismatch("hidden layer width");
  }
  if (in.f64() != config.learning_rate) throw mismatch("learning_rate");
  if (in.f64() != config.gamma) throw mismatch("gamma");
  if (in.f64() != config.reward_scale) throw mismatch("reward_scale");
  if (in.f64() != config.epsilon_start) throw mismatch("epsilon_start");
  if (in.f64() != config.epsilon_end) throw mismatch("epsilon_end");
  if (in.u64() != config.epsilon_decay_steps) {
    throw mismatch("epsilon_decay_steps");
  }
  if (in.u64() != config.batch_size) throw mismatch("batch_size");
  if (in.u64() != config.replay_capacity) throw mismatch("replay_capacity");
  if (in.u64() != config.min_replay_before_training) {
    throw mismatch("min_replay_before_training");
  }
  if (in.u64() != config.target_sync_interval) {
    throw mismatch("target_sync_interval");
  }
  if (in.f64() != config.target_tau) throw mismatch("target_tau");
  if (in.u64() != 1) throw mismatch("train_every");
  if (in.u8() != (config.double_dqn ? 1 : 0)) throw mismatch("double_dqn");
  counters.seed = in.u64();
  if (!adopt_seed && counters.seed != config.seed) throw mismatch("seed");
  in.expect_end();
  return counters;
}

}  // namespace

void DqnAgent::save_state(io::ContainerWriter& out) const {
  io::ByteWriter online;
  online_.save_state(online);
  out.add_chunk(io::tags::kNetOnline, online.take());

  io::ByteWriter target;
  target_.save_state(target);
  out.add_chunk(io::tags::kNetTarget, target.take());

  io::ByteWriter adam;
  optimizer_.save_state(adam);
  out.add_chunk(io::tags::kAdam, adam.take());

  io::ByteWriter replay;
  replay_.save_transitions(replay);
  out.add_chunk(io::tags::kReplay, replay.take());

  io::ByteWriter rng;
  rng.str(rng_.serialize_state());
  out.add_chunk(io::tags::kRngAgent, rng.take());

  io::ByteWriter counters;
  write_counters(counters, config_, env_steps_, grad_steps_);
  out.add_chunk(io::tags::kAgentCounters, counters.take());
}

void DqnAgent::load_state(const io::ContainerReader& in) {
  load_state_impl(in, /*adopt_seed=*/false);
}

void DqnAgent::load_state_adopt_seed(const io::ContainerReader& in) {
  load_state_impl(in, /*adopt_seed=*/true);
}

void DqnAgent::load_state_impl(const io::ContainerReader& in,
                               bool adopt_seed) {
  // Decode + validate every chunk before mutating anything, so a corrupt or
  // mismatched checkpoint leaves the agent exactly as it was.
  io::ByteReader online_in(in.chunk(io::tags::kNetOnline));
  const std::vector<io::NamedTensor> online = io::read_tensors(online_in);
  online_in.expect_end();
  online_.check_tensors(online);

  io::ByteReader target_in(in.chunk(io::tags::kNetTarget));
  const std::vector<io::NamedTensor> target = io::read_tensors(target_in);
  target_in.expect_end();
  target_.check_tensors(target);

  io::ByteReader adam_in(in.chunk(io::tags::kAdam));
  const AdamOptimizer::State adam = AdamOptimizer::decode_state(adam_in);
  adam_in.expect_end();
  optimizer_.check_state(adam);

  io::ByteReader replay_in(in.chunk(io::tags::kReplay));
  ReplayRing replay = replay_.decode_transitions(replay_in);
  replay_in.expect_end();

  io::ByteReader rng_in(in.chunk(io::tags::kRngAgent));
  const std::string rng_text = rng_in.str();
  rng_in.expect_end();
  Rng rng;
  try {
    rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "agent RNG state");
  }

  io::ByteReader counters_in(in.chunk(io::tags::kAgentCounters));
  const Counters counters = read_counters(counters_in, config_, adopt_seed);

  // Commit — nothing below throws.
  online_.apply_tensors(online);
  target_.apply_tensors(target);
  optimizer_.apply_state(adam);
  replay_ = std::move(replay);
  rng_ = rng;
  env_steps_ = static_cast<std::size_t>(counters.env_steps);
  grad_steps_ = static_cast<std::size_t>(counters.grad_steps);
  if (adopt_seed) config_.seed = counters.seed;
  ++target_epoch_;  // a new target network and new replay rows
}

void DqnAgent::load_policy(const io::ContainerReader& in) {
  io::ByteReader online_in(in.chunk(io::tags::kNetOnline));
  const std::vector<io::NamedTensor> online = io::read_tensors(online_in);
  online_in.expect_end();
  online_.check_tensors(online);
  online_.apply_tensors(online);
  target_.copy_parameters_from(online_);
  ++target_epoch_;
}

}  // namespace ctj::rl
