#include "serve/tenant.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/passive_fh.hpp"
#include "core/random_fh.hpp"
#include "core/vector_env.hpp"
#include "io/crc32.hpp"
#include "io/format.hpp"
#include "rl/dqn.hpp"

namespace ctj::serve {

namespace {

/// DQN tenant: the lockstep core::DqnRollout sharing one agent that
/// core::train_batched steps, so a serve tenant's trajectory equals the
/// standalone trainer's stream for stream (test-asserted).
class DqnTenant final : public TenantRunner {
 public:
  explicit DqnTenant(const JobSpec& spec)
      : TenantRunner(spec),
        scheme_(spec.dqn_config()),
        rollout_(spec.env_config(), scheme_.config(),
                 static_cast<std::size_t>(spec.replicas)) {
    scheme_.set_training(true);
  }

  std::size_t round_slots() const override { return rollout_.size(); }

  void step_slots(std::size_t slots) override {
    rl::DqnAgent& agent = scheme_.agent();
    const auto act = [&](const rl::Matrix& states,
                         std::span<std::size_t> actions) {
      agent.act_batch(states, actions);
    };
    const auto emit = [&](std::size_t r) {
      agent.observe(rollout_.transition(r));
      const core::VectorEnv& venv = rollout_.venv();
      record_slot(venv.rewards()[r], venv.successes()[r] != 0,
                  venv.jammed()[r] != 0, venv.hopped()[r] != 0);
      return true;
    };
    for (std::size_t s = 0; s < slots; s += rollout_.size()) {
      rollout_.step(act, emit);
    }
  }

  void save_state_chunks(io::ContainerWriter& out) const override {
    scheme_.save_state(out);
    rollout_.save_state(out);
  }

  void load_state_chunks(const io::ContainerReader& in) override {
    scheme_.load_state(in);
    rollout_.load_state(in);
  }

  const jammer::JammerSpec& live_jammer_spec() const override {
    return rollout_.jammer_spec();
  }

  std::uint32_t scheme_state_crc() const override {
    io::ContainerWriter out;
    scheme_.save_state(out);
    return out.crc();
  }

 private:
  core::DqnScheme scheme_;
  core::DqnRollout rollout_;
};

/// Per-slot tenant for the classic schemes (QL and the FH baselines): one
/// decide/step/feedback cycle per slot against a single environment.
class SlotTenant final : public TenantRunner {
 public:
  explicit SlotTenant(const JobSpec& spec)
      : TenantRunner(spec), env_(spec.env_config()) {
    if (spec.scheme == "ql") {
      auto ql = std::make_unique<core::QLearningScheme>(spec.ql_config());
      ql->set_training(true);
      ql_ = ql.get();
      scheme_ = std::move(ql);
    } else if (spec.scheme == "passive") {
      core::PassiveFhScheme::Config config;
      config.num_channels = spec.num_channels;
      config.num_power_levels = env_.config().num_power_levels();
      config.seed = spec.seed + 7;
      auto passive = std::make_unique<core::PassiveFhScheme>(config);
      passive_ = passive.get();
      scheme_ = std::move(passive);
    } else {
      CTJ_CHECK(spec.scheme == "random");
      core::RandomFhScheme::Config config;
      config.num_channels = spec.num_channels;
      config.num_power_levels = env_.config().num_power_levels();
      config.seed = spec.seed + 7;
      auto random = std::make_unique<core::RandomFhScheme>(config);
      random_ = random.get();
      scheme_ = std::move(random);
    }
  }

  void step_slots(std::size_t slots) override {
    for (std::size_t s = 0; s < slots; ++s) {
      const core::EnvStep step = core::play_slot(*scheme_, env_).step;
      record_slot(step.reward, step.success,
                  step.outcome != core::SlotOutcome::kClear, step.hopped);
    }
  }

  void save_state_chunks(io::ContainerWriter& out) const override {
    io::ByteWriter scheme_out;
    write_scheme(scheme_out);
    out.add_chunk(ql_ != nullptr ? io::tags::kQlState : io::tags::kFhState,
                  scheme_out.take());
    io::ByteWriter env_out;
    env_.save_state(env_out);
    out.add_chunk(io::tags::kEnvState, env_out.take());
  }

  void load_state_chunks(const io::ContainerReader& in) override {
    const char* tag =
        ql_ != nullptr ? io::tags::kQlState : io::tags::kFhState;
    io::ByteReader scheme_in(in.chunk(tag));
    if (ql_ != nullptr) {
      ql_->load_state(scheme_in);
    } else if (passive_ != nullptr) {
      passive_->load_state(scheme_in);
    } else {
      random_->load_state(scheme_in);
    }
    scheme_in.expect_end();
    io::ByteReader env_in(in.chunk(io::tags::kEnvState));
    env_.load_state(env_in);
    env_in.expect_end();
  }

  const jammer::JammerSpec& live_jammer_spec() const override {
    return env_.config().jammer;
  }

  std::uint32_t scheme_state_crc() const override {
    io::ByteWriter out = io::ByteWriter::digest();
    write_scheme(out);
    return out.crc();
  }

 private:
  void write_scheme(io::ByteWriter& out) const {
    if (ql_ != nullptr) {
      ql_->save_state(out);
    } else if (passive_ != nullptr) {
      passive_->save_state(out);
    } else {
      random_->save_state(out);
    }
  }

  core::CompetitionEnvironment env_;
  std::unique_ptr<core::AntiJammingScheme> scheme_;
  // Typed views into scheme_ (exactly one non-null).
  core::QLearningScheme* ql_ = nullptr;
  core::PassiveFhScheme* passive_ = nullptr;
  core::RandomFhScheme* random_ = nullptr;
};

}  // namespace

std::unique_ptr<TenantRunner> TenantRunner::create(const JobSpec& spec) {
  spec.validate();
  if (spec.scheme == "dqn") return std::make_unique<DqnTenant>(spec);
  return std::make_unique<SlotTenant>(spec);
}

std::size_t TenantRunner::run(std::size_t max_slots) {
  if (done() || max_slots == 0) return 0;
  const std::size_t round = round_slots();
  const auto remaining = static_cast<std::size_t>(spec_.slots - slots_done_);
  // Round down to whole rounds (minimum one) so every cut is an outer-loop
  // boundary; the budget itself is a multiple of the round size.
  std::size_t slots = std::max(round, max_slots - max_slots % round);
  slots = std::min(slots, remaining);
  step_slots(slots);
  CTJ_CHECK(slots_done_ <= spec_.slots);
  return slots;
}

void TenantRunner::record_slot(double reward, bool success, bool jammed,
                               bool hopped) {
  window_.push(reward);
  ++slots_done_;
  reward_sum_ += reward;
  unsigned char le[8];
  const auto bits = std::bit_cast<std::uint64_t>(reward);
  for (std::size_t i = 0; i < 8; ++i) {
    le[i] = static_cast<unsigned char>((bits >> (8 * i)) & 0xFFu);
  }
  reward_crc_ = io::crc32_update(reward_crc_, le, sizeof(le));
  if (success) ++successes_;
  if (jammed) ++jammed_slots_;
  if (hopped) ++hops_;
  if (spec_.record_rewards) rewards_.push_back(reward);
}

JobResult TenantRunner::result() const {
  JobResult result;
  result.slots_run = slots_done_;
  result.final_mean_reward = window_.mean();
  result.reward_sum = reward_sum_;
  result.successes = successes_;
  result.jammed_slots = jammed_slots_;
  result.hops = hops_;
  result.reward_crc = reward_crc_;
  result.state_crc = scheme_state_crc();
  result.rewards = rewards_;
  return result;
}

void TenantRunner::save_progress(io::ContainerWriter& out) const {
  io::ByteWriter progress;
  progress.u64(slots_done_);
  window_.encode(progress);
  progress.f64(reward_sum_);
  progress.u64(successes_);
  progress.u64(jammed_slots_);
  progress.u64(hops_);
  progress.u32(reward_crc_);
  progress.f64_vec(rewards_);
  out.add_chunk(io::tags::kServeProgress, progress.take());
}

void TenantRunner::load_progress(const io::ContainerReader& in) {
  io::ByteReader progress(in.chunk(io::tags::kServeProgress));
  const std::uint64_t slots_done = progress.u64();
  if (slots_done > spec_.slots) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "tenant progress exceeds the job's budget");
  }
  core::RewardWindow window = core::RewardWindow::decode(
      progress, static_cast<std::size_t>(spec_.reward_window), slots_done,
      io::ErrorKind::kStateMismatch);
  const double reward_sum = progress.f64();
  const std::uint64_t successes = progress.u64();
  const std::uint64_t jammed = progress.u64();
  const std::uint64_t hops = progress.u64();
  const std::uint32_t reward_crc = progress.u32();
  std::vector<double> rewards = progress.f64_vec();
  progress.expect_end();
  if (spec_.record_rewards ? rewards.size() != slots_done : !rewards.empty()) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "recorded reward stream does not match slots_done");
  }

  slots_done_ = slots_done;
  window_ = std::move(window);
  reward_sum_ = reward_sum;
  successes_ = successes;
  jammed_slots_ = jammed;
  hops_ = hops;
  reward_crc_ = reward_crc;
  rewards_ = std::move(rewards);
}

void TenantRunner::save(const std::string& path) const {
  io::ContainerWriter out;
  core::add_meta_chunk(out, "serve-tenant");
  io::ByteWriter job;
  spec_.encode(job);
  out.add_chunk(io::tags::kServeJob, job.take());
  core::write_jammer_config(out, live_jammer_spec());
  save_progress(out);
  save_state_chunks(out);
  out.write_file(path);
}

std::unique_ptr<TenantRunner> TenantRunner::load(const std::string& path,
                                                 const JobSpec& expect) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  io::ByteReader job(in.chunk(io::tags::kServeJob));
  const JobSpec stored = JobSpec::decode(job);
  job.expect_end();
  if (stored != expect) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      "checkpoint JobSpec differs from the submitted job — "
                      "refusing to revive a different tenant");
  }
  std::unique_ptr<TenantRunner> runner = create(stored);
  // The adversary gate: JAMRCFG must be present exactly when the spec is
  // behavioural and must decode equal to the live environment's spec.
  core::check_jammer_config(in, runner->live_jammer_spec());
  runner->load_state_chunks(in);
  runner->load_progress(in);
  return runner;
}

}  // namespace ctj::serve
