#include "core/trainer.hpp"

#include <chrono>
#include <span>

#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/vector_env.hpp"

namespace ctj::core {

// TrainProgress (the TRAINPRG chunk, with the reward window and per-slot
// bookkeeping) and the resume/cadence helpers live in
// core/checkpoint.{hpp,cpp}.

TrainingStats train(DqnScheme& scheme, CompetitionEnvironment& env,
                    const TrainerConfig& config) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  const auto t0 = std::chrono::steady_clock::now();

  scheme.set_training(true);
  TrainProgress progress{.mode = 0,
                         .replicas = 1,
                         .window = RewardWindow(config.reward_window)};

  if (should_resume_checkpoint(config)) {
    const io::ContainerReader in =
        io::ContainerReader::from_file(config.checkpoint->path);
    progress = read_train_progress(in, /*mode=*/0, /*replicas=*/1, config);
    check_jammer_config(in, env.config().jammer);
    scheme.load_state(in);
    io::ByteReader env_in(in.chunk(io::tags::kEnvState));
    env.load_state(env_in);
    env_in.expect_end();
  }

  const auto save = [&]() {
    io::ContainerWriter out = begin_trainer_checkpoint(
        progress, config, env.config().jammer, scheme);
    io::ByteWriter env_out;
    env.save_state(env_out);
    out.add_chunk(io::tags::kEnvState, env_out.take());
    out.write_file(config.checkpoint->path);
  };

  const std::size_t every =
      config.checkpoint ? config.checkpoint->every_slots : 0;
  std::size_t next_save = next_checkpoint_after(progress.slots_trained, every);

  while (progress.slots_trained < config.max_slots && !progress.early_stopped) {
    if (progress.record(play_slot(scheme, env).step.reward, config)) break;
    if (config.checkpoint && progress.slots_trained >= next_save &&
        progress.slots_trained < config.max_slots) {
      save();
      next_save = next_checkpoint_after(progress.slots_trained, every);
    }
  }

  if (config.checkpoint) save();
  return progress.stats(t0);
}

TrainingStats train_batched(DqnScheme& scheme,
                            const EnvironmentConfig& env_config,
                            const TrainerConfig& config,
                            std::size_t replicas) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  CTJ_CHECK(replicas > 0);
  // Checkpoints cut at outer-loop boundaries (all replicas between
  // transitions); a budget that ends mid-iteration would save a state no
  // uninterrupted run passes through, breaking bit-identical resume.
  CTJ_CHECK_MSG(!config.checkpoint || config.max_slots % replicas == 0,
                "batched checkpointing needs max_slots divisible by replicas");
  const auto t0 = std::chrono::steady_clock::now();

  scheme.set_training(true);
  rl::DqnAgent& agent = scheme.agent();
  DqnRollout rollout(env_config, scheme.config(), replicas);
  TrainProgress progress{.mode = 1,
                         .replicas = replicas,
                         .window = RewardWindow(config.reward_window)};

  if (should_resume_checkpoint(config)) {
    const io::ContainerReader in =
        io::ContainerReader::from_file(config.checkpoint->path);
    progress = read_train_progress(in, /*mode=*/1, replicas, config);
    check_jammer_config(in, rollout.jammer_spec());
    scheme.load_state(in);
    rollout.load_state(in);
  }

  const auto save = [&]() {
    io::ContainerWriter out = begin_trainer_checkpoint(
        progress, config, rollout.jammer_spec(), scheme);
    rollout.save_state(out);
    out.write_file(config.checkpoint->path);
  };

  const std::size_t every =
      config.checkpoint ? config.checkpoint->every_slots : 0;
  std::size_t next_save = next_checkpoint_after(progress.slots_trained, every);

  // One batched ε-greedy forward decides for every replica. For a single
  // replica the RNG draw order (bernoulli, then index only on explore)
  // matches DqnAgent::act exactly, so train() is reproduced slot for slot.
  const auto act = [&](const rl::Matrix& states,
                       std::span<std::size_t> actions) {
    agent.act_batch(states, actions);
  };
  const auto emit = [&](std::size_t r) {
    agent.observe(rollout.transition(r));
    return !progress.record(rollout.venv().rewards()[r], config) &&
           progress.slots_trained < config.max_slots;
  };
  while (progress.slots_trained < config.max_slots && !progress.early_stopped) {
    rollout.step(act, emit);
    // Checkpoints only at outer-loop boundaries: here every replica is
    // between transitions, so the saved state is a clean cut for all of
    // them. An early-stopped cut is saved too (flagged, so a resume does
    // not train past the stop).
    if (config.checkpoint && !progress.early_stopped &&
        progress.slots_trained >= next_save &&
        progress.slots_trained < config.max_slots) {
      save();
      next_save = next_checkpoint_after(progress.slots_trained, every);
    }
  }

  if (config.checkpoint) save();
  return progress.stats(t0);
}

}  // namespace ctj::core
