#include "arena/self_play.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "arena/learned_jammer.hpp"
#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "io/container.hpp"

namespace ctj::arena {

namespace {

constexpr std::uint8_t kArenaVersion = 1;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic per-phase seed derivation (splitmix64 finalizer) — every
/// duel's seed is a pure function of (arena seed, phase tag), so a resumed
/// run replays exactly the streams the uninterrupted run would draw.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Phase tags: generation-scoped streams never collide across phases.
std::uint64_t phase_tag(std::size_t generation, std::uint64_t phase,
                        std::uint64_t sub = 0) {
  return (static_cast<std::uint64_t>(generation) << 16) | (phase << 8) | sub;
}

}  // namespace

SelfPlayConfig SelfPlayConfig::defaults() {
  SelfPlayConfig config;
  config.env = core::EnvironmentConfig::defaults();
  config.jammer = jammer::JammerSpec::defaults("learned");
  return config;
}

SelfPlay::SelfPlay(SelfPlayConfig config)
    : config_(std::move(config)), defender_(config_.defender) {
  ensure_registered();
  CTJ_CHECK_MSG(config_.jammer.archetype == "learned",
                "the arena trains the \"learned\" archetype, got \""
                    << config_.jammer.archetype << '"');
  CTJ_CHECK(config_.defender.num_channels == config_.env.num_channels);
  CTJ_CHECK(config_.defender.num_power_levels == config_.env.tx_levels.size());
  CTJ_CHECK(config_.jammer_slots > 0);
  CTJ_CHECK(config_.defender_slots > 0);
  CTJ_CHECK(config_.eval_slots > 0);
  CTJ_CHECK(config_.pool_capacity > 0);

  // The jammer pool opens with the untrained generation-0 member — the
  // naive adversary (random ε-greedy emissions) — so the cross table keeps
  // a naive column and the defender never forgets the baseline. The
  // generation-0 *defender* entry is pushed by run() after the warmup
  // phase, so it snapshots a competent (but unhardened) policy.
  {
    jammer::JammerSpec spec = config_.jammer;
    spec.num_channels = config_.env.num_channels;
    spec.channels_per_sweep = config_.env.channels_per_sweep;
    spec.power_levels = config_.env.jam_levels;
    spec.mode = config_.env.mode;
    LearnedJammer naive(LearnedJammerConfig::from_spec(spec),
                        mix(config_.seed, phase_tag(0, 0)));
    naive.set_frozen(true);
    io::ByteWriter out;
    naive.save_state(out);
    jammer_pool_.push_back({0, out.take()});
  }
}

core::EnvironmentConfig SelfPlay::env_config(std::uint64_t seed) const {
  core::EnvironmentConfig env = config_.env;
  env.seed = seed;
  env.jammer = config_.jammer;
  return env;
}

core::CompetitionEnvironment SelfPlay::make_env(std::uint64_t seed,
                                                const std::string& state,
                                                bool frozen) const {
  core::CompetitionEnvironment env(env_config(seed));
  auto* jam = dynamic_cast<LearnedJammer*>(env.behavioural_jammer());
  CTJ_CHECK_MSG(jam != nullptr, "arena environment has no learned jammer");
  if (!state.empty()) {
    io::ByteReader in(state);
    jam->load_state(in);
    in.expect_end();
  }
  jam->set_frozen(frozen);
  return env;
}

std::string SelfPlay::extract_jammer(core::CompetitionEnvironment& env) {
  auto* jam = dynamic_cast<LearnedJammer*>(env.behavioural_jammer());
  CTJ_CHECK(jam != nullptr);
  io::ByteWriter out;
  jam->save_state(out);
  return out.take();
}

double SelfPlay::eval_defender(const core::DqnScheme& defender,
                               const std::string& jammer_state,
                               std::uint64_t seed) {
  core::CompetitionEnvironment env = make_env(seed, jammer_state,
                                              /*frozen=*/true);
  core::DqnScheme copy = defender;
  copy.set_training(false);
  copy.reset();
  const core::MetricsReport metrics =
      core::evaluate(copy, env, config_.eval_slots);
  slots_total_ += config_.eval_slots;
  return metrics.mean_reward;
}

std::string SelfPlay::defender_policy_snapshot() const {
  io::ContainerWriter out;
  io::ByteWriter net;
  defender_.agent().online_network().save_state(net);
  out.add_chunk(io::tags::kNetOnline, net.take());
  return out.to_bytes();
}

void SelfPlay::run_generation(std::size_t g) {
  GenerationResult result;
  result.generation = g;

  // Phase 1 — jammer best response: the carried jammer keeps training
  // online against a frozen copy of the current defender.
  {
    core::CompetitionEnvironment env = make_env(
        mix(config_.seed, phase_tag(g, 1)), jammer_state_, /*frozen=*/false);
    core::DqnScheme frozen_defender = defender_;
    frozen_defender.set_training(false);
    frozen_defender.reset();
    std::size_t jam_hits = 0;
    for (std::size_t slot = 0; slot < config_.jammer_slots; ++slot) {
      const core::SlotPlay play = core::play_slot(frozen_defender, env);
      if (play.step.outcome != core::SlotOutcome::kClear) ++jam_hits;
    }
    slots_total_ += config_.jammer_slots;
    result.jammer_hit_rate = static_cast<double>(jam_hits) /
                             static_cast<double>(config_.jammer_slots);
    jammer_state_ = extract_jammer(env);
  }

  // Phase 2 — exploitability probe on the still-frozen defender: pool mean
  // (the adversaries it was hardened against) minus the fresh best response
  // (the worst case). Evaluated before the pool absorbs the best response.
  result.reward_vs_best_response =
      eval_defender(defender_, jammer_state_, mix(config_.seed, phase_tag(g, 2)));
  {
    double sum = 0.0;
    for (std::size_t k = 0; k < jammer_pool_.size(); ++k) {
      sum += eval_defender(defender_, jammer_pool_[k].state,
                           mix(config_.seed, phase_tag(g, 3, k)));
    }
    result.reward_vs_pool = sum / static_cast<double>(jammer_pool_.size());
  }
  result.exploitability =
      result.reward_vs_pool - result.reward_vs_best_response;

  jammer_pool_.push_back({g + 1, jammer_state_});
  while (jammer_pool_.size() > config_.pool_capacity) {
    jammer_pool_.erase(jammer_pool_.begin());
  }

  // Phase 3 — defender update: train round-robin across the frozen pool so
  // the new policy cannot overfit the newest adversary.
  {
    const std::size_t pool = jammer_pool_.size();
    const std::size_t share = config_.defender_slots / pool;
    double weighted_reward = 0.0;
    std::size_t trained = 0;
    for (std::size_t k = 0; k < pool; ++k) {
      std::size_t slots = share;
      if (k == pool - 1) slots += config_.defender_slots % pool;
      if (slots == 0) continue;
      core::CompetitionEnvironment env =
          make_env(mix(config_.seed, phase_tag(g, 4, k)),
                   jammer_pool_[k].state, /*frozen=*/true);
      core::TrainerConfig trainer;
      trainer.max_slots = slots;
      trainer.reward_window = std::min<std::size_t>(500, slots);
      const core::TrainingStats stats = core::train(defender_, env, trainer);
      weighted_reward +=
          stats.final_mean_reward * static_cast<double>(stats.slots_trained);
      trained += stats.slots_trained;
    }
    slots_total_ += trained;
    result.defender_train_reward =
        trained > 0 ? weighted_reward / static_cast<double>(trained) : 0.0;
  }

  defender_pool_.push_back({g + 1, defender_policy_snapshot()});
  while (defender_pool_.size() > config_.pool_capacity) {
    defender_pool_.erase(defender_pool_.begin());
  }

  history_.push_back(result);
  if (config_.on_generation) config_.on_generation(result);
}

void SelfPlay::save_checkpoint() const {
  CTJ_CHECK(config_.checkpoint.has_value());
  io::ContainerWriter out;
  core::add_meta_chunk(out, "arena");
  defender_.save_state(out);

  jammer::JammerSpec spec = config_.jammer;
  spec.num_channels = config_.env.num_channels;
  spec.channels_per_sweep = config_.env.channels_per_sweep;
  spec.power_levels = config_.env.jam_levels;
  spec.mode = config_.env.mode;
  core::write_jammer_config(out, spec);

  out.add_chunk(io::tags::kJammerPolicy, jammer_state_);

  io::ByteWriter pool;
  pool.u64(jammer_pool_.size());
  pool.u64(defender_pool_.size());
  for (const PoolEntry& entry : jammer_pool_) {
    pool.u64(entry.generation);
    pool.str(entry.state);
  }
  for (const PoolEntry& entry : defender_pool_) {
    pool.u64(entry.generation);
    pool.str(entry.state);
  }
  out.add_chunk(io::tags::kOpponentPool, pool.take());

  io::ByteWriter prg;
  prg.u8(kArenaVersion);
  prg.u64(generations_done_);
  prg.u64(slots_total_);
  // Config digest: everything a resume must not silently change.
  // `generations` is deliberately absent — extending the budget is allowed.
  prg.u64(config_.warmup_slots);
  prg.u64(config_.jammer_slots);
  prg.u64(config_.defender_slots);
  prg.u64(config_.eval_slots);
  prg.u64(config_.pool_capacity);
  prg.u64(config_.seed);
  prg.i32(config_.env.num_channels);
  prg.i32(config_.env.channels_per_sweep);
  prg.f64_vec(config_.env.tx_levels);
  prg.f64_vec(config_.env.jam_levels);
  prg.u8(config_.env.mode == JammerPowerMode::kMaxPower ? 0 : 1);
  prg.f64(config_.env.loss_jam);
  prg.f64(config_.env.loss_hop);
  prg.u64(config_.env.seed);
  prg.u64(history_.size());
  for (const GenerationResult& r : history_) {
    prg.u64(r.generation);
    prg.f64(r.jammer_hit_rate);
    prg.f64(r.defender_train_reward);
    prg.f64(r.reward_vs_pool);
    prg.f64(r.reward_vs_best_response);
    prg.f64(r.exploitability);
  }
  out.add_chunk(io::tags::kArenaProgress, prg.take());

  out.write_file(config_.checkpoint->path);
}

bool SelfPlay::try_resume() {
  if (!config_.checkpoint || !config_.checkpoint->resume) return false;
  if (!std::filesystem::exists(config_.checkpoint->path)) return false;
  const io::ContainerReader in =
      io::ContainerReader::from_file(config_.checkpoint->path);

  io::ByteReader prg(in.chunk(io::tags::kArenaProgress));
  const std::uint8_t version = prg.u8();
  if (version != kArenaVersion) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "arena progress version " + std::to_string(version) +
                          " not understood");
  }
  const std::uint64_t generations_done = prg.u64();
  const std::uint64_t slots_total = prg.u64();
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "arena checkpoint differs in " + what);
  };
  if (prg.u64() != config_.warmup_slots) throw mismatch("warmup_slots");
  if (prg.u64() != config_.jammer_slots) throw mismatch("jammer_slots");
  if (prg.u64() != config_.defender_slots) throw mismatch("defender_slots");
  if (prg.u64() != config_.eval_slots) throw mismatch("eval_slots");
  if (prg.u64() != config_.pool_capacity) throw mismatch("pool_capacity");
  if (prg.u64() != config_.seed) throw mismatch("seed");
  if (prg.i32() != config_.env.num_channels) throw mismatch("num_channels");
  if (prg.i32() != config_.env.channels_per_sweep) {
    throw mismatch("channels_per_sweep");
  }
  if (prg.f64_vec() != config_.env.tx_levels) throw mismatch("tx_levels");
  if (prg.f64_vec() != config_.env.jam_levels) throw mismatch("jam_levels");
  if (prg.u8() !=
      (config_.env.mode == JammerPowerMode::kMaxPower ? 0 : 1)) {
    throw mismatch("power mode");
  }
  if (prg.f64() != config_.env.loss_jam) throw mismatch("loss_jam");
  if (prg.f64() != config_.env.loss_hop) throw mismatch("loss_hop");
  if (prg.u64() != config_.env.seed) throw mismatch("env seed");
  const std::uint64_t history_count = prg.u64();
  if (history_count != generations_done || history_count > 1u << 20) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "arena history count inconsistent");
  }
  std::vector<GenerationResult> history;
  for (std::uint64_t i = 0; i < history_count; ++i) {
    GenerationResult r;
    r.generation = static_cast<std::size_t>(prg.u64());
    r.jammer_hit_rate = prg.f64();
    r.defender_train_reward = prg.f64();
    r.reward_vs_pool = prg.f64();
    r.reward_vs_best_response = prg.f64();
    r.exploitability = prg.f64();
    history.push_back(std::move(r));
  }
  prg.expect_end();

  jammer::JammerSpec spec = config_.jammer;
  spec.num_channels = config_.env.num_channels;
  spec.channels_per_sweep = config_.env.channels_per_sweep;
  spec.power_levels = config_.env.jam_levels;
  spec.mode = config_.env.mode;
  core::check_jammer_config(in, spec);

  std::string jammer_state{in.chunk(io::tags::kJammerPolicy)};

  io::ByteReader pool_in(in.chunk(io::tags::kOpponentPool));
  const std::uint64_t jammer_count = pool_in.u64();
  const std::uint64_t defender_count = pool_in.u64();
  if (jammer_count == 0 || jammer_count > config_.pool_capacity ||
      defender_count == 0 || defender_count > config_.pool_capacity) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "arena pool sizes out of range");
  }
  std::vector<PoolEntry> jammer_pool;
  for (std::uint64_t i = 0; i < jammer_count; ++i) {
    PoolEntry entry;
    entry.generation = static_cast<std::size_t>(pool_in.u64());
    entry.state = pool_in.str();
    jammer_pool.push_back(std::move(entry));
  }
  std::vector<PoolEntry> defender_pool;
  for (std::uint64_t i = 0; i < defender_count; ++i) {
    PoolEntry entry;
    entry.generation = static_cast<std::size_t>(pool_in.u64());
    entry.state = pool_in.str();
    defender_pool.push_back(std::move(entry));
  }
  pool_in.expect_end();

  // Everything local decoded and validated; the scheme restore below is
  // itself strong (no mutation on failure), so on any throw this SelfPlay
  // is unchanged. Commit order: defender first, then the locals.
  defender_.load_state(in);
  jammer_state_ = std::move(jammer_state);
  jammer_pool_ = std::move(jammer_pool);
  defender_pool_ = std::move(defender_pool);
  history_ = std::move(history);
  generations_done_ = static_cast<std::size_t>(generations_done);
  slots_total_ = static_cast<std::size_t>(slots_total);
  return true;
}

SelfPlayResult SelfPlay::run() {
  const double t0 = now_seconds();
  resumed_ = try_resume();
  if (!resumed_) {
    // Warmup: the defender trains against the naive frozen jammer before
    // generation 0, so the first exploitability probe measures a competent
    // but unhardened policy (see SelfPlayConfig::warmup_slots). The
    // generation-0 defender pool entry snapshots the warmed-up policy. A
    // run killed during warmup simply restarts it — the first checkpoint
    // is written after generation 0.
    if (config_.warmup_slots > 0) {
      core::CompetitionEnvironment env =
          make_env(mix(config_.seed, phase_tag(0, 6)),
                   jammer_pool_.front().state, /*frozen=*/true);
      core::TrainerConfig trainer;
      trainer.max_slots = config_.warmup_slots;
      trainer.reward_window = std::min<std::size_t>(500, config_.warmup_slots);
      const core::TrainingStats stats = core::train(defender_, env, trainer);
      slots_total_ += stats.slots_trained;
    }
    defender_pool_.push_back({0, defender_policy_snapshot()});
  }
  for (std::size_t g = generations_done_; g < config_.generations; ++g) {
    run_generation(g);
    ++generations_done_;
    if (config_.checkpoint) save_checkpoint();
  }

  SelfPlayResult result;
  result.generations = history_;
  result.resumed = resumed_;
  for (const PoolEntry& entry : defender_pool_) {
    result.defender_generations.push_back(entry.generation);
  }
  for (const PoolEntry& entry : jammer_pool_) {
    result.jammer_generations.push_back(entry.generation);
  }
  // Head-to-head cross table: every pooled defender vs every pooled jammer.
  for (std::size_t i = 0; i < defender_pool_.size(); ++i) {
    core::DqnScheme scheme(config_.defender);
    scheme.agent().load_policy(
        io::ContainerReader::from_bytes(defender_pool_[i].state));
    scheme.set_training(false);
    std::vector<double> row;
    for (std::size_t j = 0; j < jammer_pool_.size(); ++j) {
      row.push_back(eval_defender(
          scheme, jammer_pool_[j].state,
          mix(config_.seed, phase_tag(config_.generations, 5,
                                      i * config_.pool_capacity + j))));
    }
    result.cross_table.push_back(std::move(row));
  }
  result.slots_total = slots_total_;
  result.wall_seconds = now_seconds() - t0;
  return result;
}

}  // namespace ctj::arena
