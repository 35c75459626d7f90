#include "core/checkpoint.hpp"

#include <filesystem>
#include <limits>
#include <map>

#include "common/kernels.hpp"

namespace ctj::core {

void add_meta_chunk(io::ContainerWriter& out, const std::string& type) {
  std::map<std::string, std::string> meta;
  meta["format"] = "ctjs";
  meta["type"] = type;
  meta["simd_level"] = kern::simd_level_name();
  out.add_chunk(io::tags::kMeta, io::encode_meta(meta));
}

void save_scheme(const DqnScheme& scheme, const std::string& path) {
  io::ContainerWriter out;
  add_meta_chunk(out, "model");
  scheme.save_state(out);
  out.write_file(path);
}

void load_scheme(DqnScheme& scheme, const std::string& path) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  scheme.load_state(in);
}

DqnScheme::Config read_scheme_config(const std::string& path) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  return DqnScheme::read_config(in);
}

void load_policy(DqnScheme& scheme, const std::string& path) {
  const io::ContainerReader in = io::ContainerReader::from_file(path);
  scheme.agent().load_policy(in);
}

bool TrainProgress::record(double reward, const TrainerConfig& config) {
  window.push(reward);
  ++slots_trained;
  if (config.on_slot) config.on_slot(slots_trained - 1, reward);
  if (window.reached(config.target_mean_reward)) early_stopped = true;
  return early_stopped;
}

TrainingStats TrainProgress::stats(
    std::chrono::steady_clock::time_point t0) const {
  TrainingStats stats;
  stats.slots_trained = static_cast<std::size_t>(slots_trained);
  stats.final_mean_reward = window.mean();
  stats.early_stopped = early_stopped;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

void write_train_progress(io::ContainerWriter& out,
                          const TrainProgress& progress,
                          const TrainerConfig& config) {
  io::ByteWriter w;
  w.u8(progress.mode);
  w.u64(progress.replicas);
  w.u64(progress.slots_trained);
  w.u8(progress.early_stopped ? 1 : 0);
  w.u64(config.reward_window);
  w.u8(config.target_mean_reward ? 1 : 0);
  w.f64(config.target_mean_reward.value_or(0.0));
  progress.window.encode(w);
  out.add_chunk(io::tags::kTrainProgress, w.take());
}

TrainProgress read_train_progress(const io::ContainerReader& in,
                                  std::uint8_t mode, std::uint64_t replicas,
                                  const TrainerConfig& config) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint trainer state differs in " + what);
  };
  io::ByteReader r(in.chunk(io::tags::kTrainProgress));
  if (r.u8() != mode) throw mismatch("training mode");
  if (r.u64() != replicas) throw mismatch("replica count");
  const std::uint64_t slots_trained = r.u64();
  const bool early_stopped = r.u8() != 0;
  if (r.u64() != config.reward_window) throw mismatch("reward_window");
  const bool has_target = r.u8() != 0;
  const double target = r.f64();
  if (has_target != config.target_mean_reward.has_value() ||
      (has_target && target != *config.target_mean_reward)) {
    throw mismatch("target_mean_reward");
  }
  TrainProgress progress{
      mode, replicas, slots_trained, early_stopped,
      RewardWindow::decode(r, config.reward_window, slots_trained,
                           io::ErrorKind::kBadPayload)};
  r.expect_end();
  return progress;
}

io::ContainerWriter begin_trainer_checkpoint(const TrainProgress& progress,
                                             const TrainerConfig& config,
                                             const jammer::JammerSpec& jammer,
                                             const DqnScheme& scheme) {
  io::ContainerWriter out;
  add_meta_chunk(out, "trainer");
  write_train_progress(out, progress, config);
  write_jammer_config(out, jammer);
  scheme.save_state(out);
  return out;
}

void write_jammer_config(io::ContainerWriter& out,
                         const jammer::JammerSpec& spec) {
  if (spec.is_kernel()) return;
  io::ByteWriter w;
  spec.encode(w);
  out.add_chunk(io::tags::kJammerCfg, w.take());
}

void check_jammer_config(const io::ContainerReader& in,
                         const jammer::JammerSpec& spec) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint adversary differs: " + what);
  };
  if (spec.is_kernel()) {
    if (in.has_chunk(io::tags::kJammerCfg)) {
      throw mismatch(
          "checkpoint was trained against a behavioural jammer, the live "
          "environment samples the closed-form kernel");
    }
    return;
  }
  if (!in.has_chunk(io::tags::kJammerCfg)) {
    throw mismatch(
        "checkpoint has no JAMRCFG chunk, the live environment runs \"" +
        spec.archetype + "\"");
  }
  io::ByteReader r(in.chunk(io::tags::kJammerCfg));
  const jammer::JammerSpec stored = jammer::JammerSpec::decode(r);
  r.expect_end();
  if (stored != spec) {
    throw mismatch("checkpoint ran \"" + stored.archetype +
                   "\", the live environment runs \"" + spec.archetype +
                   "\" (or the tunables differ)");
  }
}

bool should_resume_checkpoint(const TrainerConfig& config) {
  if (!config.checkpoint || !config.checkpoint->resume) return false;
  std::error_code ec;
  return std::filesystem::exists(config.checkpoint->path, ec);
}

std::size_t next_checkpoint_after(std::size_t slots, std::size_t every) {
  if (every == 0) return std::numeric_limits<std::size_t>::max();
  return (slots / every + 1) * every;
}

}  // namespace ctj::core
