// Parallel actor-learner trainer tests: the SPSC transition plumbing, the
// policy bus, and the headline properties — deterministic mode is
// bit-identical across thread counts, and a killed and resumed parallel run
// reproduces an uninterrupted one exactly (both from periodic epoch-gate
// cuts and from a finished run's mid-epoch final cut when the budget is
// extended). The sharded replay's tests live with its decoder in
// test_checkpoint.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/train_parallel.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"
#include "rl/policy_bus.hpp"
#include "rl/replay.hpp"

using namespace ctj;
using namespace ctj::core;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DqnScheme::Config small_scheme_config() {
  DqnScheme::Config config;
  config.history = 2;
  config.hidden = {8};
  config.epsilon_decay_steps = 200;
  config.seed = 99;
  return config;
}

EnvironmentConfig small_env_config() {
  auto config = EnvironmentConfig::defaults();
  config.seed = 5;
  return config;
}

std::string scheme_bytes(const DqnScheme& scheme) {
  io::ContainerWriter out;
  scheme.save_state(out);
  return out.to_bytes();
}

void fill_record(double* rec, std::size_t state_dim, double tag) {
  rec[rl::kTransAction] = tag;
  rec[rl::kTransReward] = tag + 0.5;
  rec[rl::kTransDone] = 0.0;
  for (std::size_t i = 0; i < 2 * state_dim; ++i) {
    rec[rl::kTransState + i] = tag + static_cast<double>(i);
  }
}

}  // namespace

TEST(TransitionQueue, CapacityRoundsUpAndFifoOrder) {
  rl::TransitionQueue queue(5, /*state_dim=*/2);
  EXPECT_EQ(queue.capacity(), 8u);
  EXPECT_EQ(queue.stride(), rl::transition_stride(2));
  EXPECT_EQ(queue.try_front(), nullptr);  // empty

  for (std::size_t i = 0; i < queue.capacity(); ++i) {
    double* rec = queue.try_acquire();
    ASSERT_NE(rec, nullptr);
    fill_record(rec, 2, static_cast<double>(i));
    queue.commit();
  }
  EXPECT_EQ(queue.try_acquire(), nullptr);  // full

  for (std::size_t i = 0; i < queue.capacity(); ++i) {
    const double* rec = queue.try_front();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec[rl::kTransAction], static_cast<double>(i));
    EXPECT_EQ(rec[rl::kTransReward], static_cast<double>(i) + 0.5);
    queue.pop();
  }
  EXPECT_EQ(queue.try_front(), nullptr);
}

TEST(TransitionQueue, ConcurrentStreamArrivesInOrderIntact) {
  constexpr std::size_t kCount = 20000;
  constexpr std::size_t kStateDim = 3;
  rl::TransitionQueue queue(8, kStateDim);

  std::thread producer([&] {
    for (std::size_t i = 0; i < kCount; ++i) {
      double* rec;
      while ((rec = queue.try_acquire()) == nullptr) std::this_thread::yield();
      fill_record(rec, kStateDim, static_cast<double>(i));
      queue.commit();
    }
  });

  std::size_t corrupt = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    const double* rec;
    while ((rec = queue.try_front()) == nullptr) std::this_thread::yield();
    const double tag = static_cast<double>(i);
    if (rec[rl::kTransAction] != tag) ++corrupt;
    for (std::size_t j = 0; j < 2 * kStateDim; ++j) {
      if (rec[rl::kTransState + j] != tag + static_cast<double>(j)) ++corrupt;
    }
    queue.pop();
  }
  producer.join();
  EXPECT_EQ(corrupt, 0u);
  EXPECT_EQ(queue.try_front(), nullptr);  // fully drained
}

TEST(PolicyBus, VersionsFetchAndStop) {
  rl::PolicyBus bus(3);
  std::vector<double> weights(3);
  double eps = -1.0;
  std::uint64_t last_seen = 0;
  EXPECT_EQ(bus.version(), 0u);
  EXPECT_FALSE(bus.fetch_if_newer(last_seen, weights, eps));

  bus.publish(std::vector<double>{1.0, 2.0, 3.0}, 0.25, 1);
  EXPECT_EQ(bus.version(), 1u);
  EXPECT_TRUE(bus.fetch_if_newer(last_seen, weights, eps));
  EXPECT_EQ(last_seen, 1u);
  EXPECT_EQ(weights, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(eps, 0.25);
  EXPECT_FALSE(bus.fetch_if_newer(last_seen, weights, eps));  // no news

  // wait_version returns immediately once satisfied, and a blocked waiter
  // is released by publish.
  EXPECT_TRUE(bus.wait_version(1, weights, eps));
  std::thread waiter([&bus] {
    std::vector<double> w(3);
    double e;
    EXPECT_TRUE(bus.wait_version(2, w, e));
    EXPECT_EQ(w[0], 4.0);
  });
  EXPECT_TRUE(bus.wait_waiters(1));
  bus.publish(std::vector<double>{4.0, 5.0, 6.0}, 0.1, 2);
  waiter.join();

  // stop() releases pending waits with false.
  std::thread stopped([&bus] {
    std::vector<double> w(3);
    double e;
    EXPECT_FALSE(bus.wait_version(99, w, e));
  });
  EXPECT_TRUE(bus.wait_waiters(1));
  bus.stop();
  stopped.join();
  EXPECT_FALSE(bus.wait_version(99, weights, eps));
}

TEST(TrainParallel, DeterministicModeIsBitIdenticalAcrossThreadCounts) {
  TrainerConfig config;
  config.max_slots = 400;  // 50 rounds of 4 actors × 2 replicas
  config.reward_window = 50;
  ParallelTrainerConfig pconfig;
  pconfig.actors = 4;
  pconfig.replicas_per_actor = 2;
  pconfig.sync_every_rounds = 8;

  std::string ref_bytes;
  std::vector<double> ref_rewards;
  for (std::size_t threads : {1u, 2u, 4u}) {
    std::vector<double> rewards;
    config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
    pconfig.threads = threads;
    DqnScheme scheme(small_scheme_config());
    const auto stats =
        train_parallel(scheme, small_env_config(), config, pconfig);
    EXPECT_EQ(stats.slots_trained, 400u);
    if (threads == 1) {
      ref_bytes = scheme_bytes(scheme);
      ref_rewards = rewards;
      ASSERT_EQ(ref_rewards.size(), 400u);
    } else {
      EXPECT_EQ(rewards, ref_rewards) << "threads=" << threads;
      EXPECT_EQ(scheme_bytes(scheme), ref_bytes) << "threads=" << threads;
    }
  }
}

TEST(TrainParallel, KillResumeIsBitIdenticalFromEpochGateCut) {
  const std::string path = temp_path("ctj_resume_parallel.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 320;  // 80 rounds of 2 × 2
  config.reward_window = 50;
  ParallelTrainerConfig pconfig;
  pconfig.actors = 2;
  pconfig.replicas_per_actor = 2;
  pconfig.sync_every_rounds = 4;
  pconfig.threads = 2;

  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  const auto ref_stats =
      train_parallel(ref, small_env_config(), config, pconfig);
  ASSERT_EQ(ref_rewards.size(), 320u);

  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 160;
    DqnScheme scheme(small_scheme_config());
    train_parallel(scheme, small_env_config(), phase1, pconfig);
  }
  DqnScheme resumed(small_scheme_config());
  const auto stats =
      train_parallel(resumed, small_env_config(), config, pconfig);

  EXPECT_EQ(stats.slots_trained, 320u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));
  std::filesystem::remove(path);
}

TEST(TrainParallel, BudgetExtensionResumesFromMidEpochFinalCut) {
  const std::string path = temp_path("ctj_resume_parallel_ext.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 64;  // 16 rounds of 2 × 2
  config.reward_window = 20;
  ParallelTrainerConfig pconfig;
  pconfig.actors = 2;
  pconfig.replicas_per_actor = 2;
  pconfig.sync_every_rounds = 4;
  pconfig.threads = 2;

  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  train_parallel(ref, small_env_config(), config, pconfig);
  ASSERT_EQ(ref_rewards.size(), 64u);

  // Phase 1 finishes a 24-slot run: its final cut lands at round 6 — a
  // round boundary but *not* an epoch gate (6 % 4 != 0). The resumed run
  // must re-apply the stored mid-epoch snapshot, not fresh weights.
  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 0, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 24;
    DqnScheme scheme(small_scheme_config());
    train_parallel(scheme, small_env_config(), phase1, pconfig);
  }
  DqnScheme resumed(small_scheme_config());
  const auto stats =
      train_parallel(resumed, small_env_config(), config, pconfig);

  EXPECT_EQ(stats.slots_trained, 64u);
  EXPECT_EQ(rewards, ref_rewards);
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));
  std::filesystem::remove(path);
}

TEST(TrainParallel, ThroughputModeTrainsToBudgetAndResumes) {
  const std::string path = temp_path("ctj_resume_parallel_async.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 400;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 150, true};
  ParallelTrainerConfig pconfig;
  pconfig.actors = 2;
  pconfig.replicas_per_actor = 2;
  pconfig.sync_every_rounds = 4;
  pconfig.threads = 2;
  pconfig.deterministic = false;

  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 200;
    DqnScheme scheme(small_scheme_config());
    const auto stats =
        train_parallel(scheme, small_env_config(), phase1, pconfig);
    EXPECT_EQ(stats.slots_trained, 200u);
    EXPECT_FALSE(stats.early_stopped);
  }
  // Resume picks the checkpoint up and completes the full budget. (No
  // bit-identity claim in throughput mode — only clean continuation.)
  DqnScheme resumed(small_scheme_config());
  const auto stats =
      train_parallel(resumed, small_env_config(), config, pconfig);
  EXPECT_EQ(stats.slots_trained, 400u);
  EXPECT_GT(resumed.agent().gradient_steps(), 0u);
  std::filesystem::remove(path);
}

TEST(TrainParallel, EarlyStopTriggersInBothModes) {
  TrainerConfig config;
  config.max_slots = 4000;
  config.reward_window = 40;
  config.target_mean_reward = -1e9;  // satisfied as soon as the window fills
  ParallelTrainerConfig pconfig;
  pconfig.actors = 2;
  pconfig.replicas_per_actor = 2;
  pconfig.threads = 2;

  for (bool deterministic : {true, false}) {
    pconfig.deterministic = deterministic;
    DqnScheme scheme(small_scheme_config());
    const auto stats =
        train_parallel(scheme, small_env_config(), config, pconfig);
    EXPECT_TRUE(stats.early_stopped);
    EXPECT_EQ(stats.slots_trained, 40u);
  }
}

TEST(TrainParallel, ResumeValidatesShardTopology) {
  const std::string path = temp_path("ctj_resume_parallel_cfg.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 64;
  config.reward_window = 20;
  config.checkpoint = CheckpointOptions{path, 0, true};
  ParallelTrainerConfig pconfig;
  pconfig.actors = 2;
  pconfig.replicas_per_actor = 2;
  pconfig.sync_every_rounds = 4;
  {
    DqnScheme scheme(small_scheme_config());
    train_parallel(scheme, small_env_config(), config, pconfig);
  }

  // Same total replica count but a different actor split: the TRAINPRG
  // digest passes, the PARTRNST one must not.
  ParallelTrainerConfig resplit = pconfig;
  resplit.actors = 4;
  resplit.replicas_per_actor = 1;
  DqnScheme scheme(small_scheme_config());
  try {
    train_parallel(scheme, small_env_config(), config, resplit);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }

  // A different schedule (sync cadence) is also part of the digest.
  ParallelTrainerConfig resync = pconfig;
  resync.sync_every_rounds = 8;
  DqnScheme scheme2(small_scheme_config());
  try {
    train_parallel(scheme2, small_env_config(), config, resync);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  std::filesystem::remove(path);
}

TEST(TrainParallel, DeterministicModeRejectsIndivisibleBudget) {
  TrainerConfig config;
  config.max_slots = 10;  // not divisible by 2 × 2
  config.reward_window = 5;
  ParallelTrainerConfig pconfig;
  pconfig.actors = 2;
  pconfig.replicas_per_actor = 2;
  DqnScheme scheme(small_scheme_config());
  EXPECT_THROW(train_parallel(scheme, small_env_config(), config, pconfig),
               CheckFailure);
}
