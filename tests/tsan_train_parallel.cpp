// ThreadSanitizer driver for the parallel actor-learner trainer: a
// deterministic run at 1 and 4 threads (results must match bit for bit)
// plus a free-running throughput run, all under TSan instrumentation.
//
// Standalone (non-gtest) so it can be built with -fsanitize=thread in an
// otherwise uninstrumented build; train_parallel.cpp, policy_bus.cpp and
// replay.cpp are compiled into this binary directly (see
// tests/CMakeLists.txt) so the lock-free index protocol, the bus atomics
// and the pause gate are all instrumented — TSan cannot see into the
// library's uninstrumented copies.
#include <cstdio>
#include <vector>

#include "core/train_parallel.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"

using namespace ctj;
using namespace ctj::core;

namespace {

DqnScheme::Config scheme_config() {
  DqnScheme::Config config;
  config.history = 2;
  config.hidden = {8};
  config.epsilon_decay_steps = 200;
  config.seed = 99;
  return config;
}

EnvironmentConfig env_config() {
  auto config = EnvironmentConfig::defaults();
  config.seed = 5;
  return config;
}

std::string scheme_bytes(const DqnScheme& scheme) {
  io::ContainerWriter out;
  scheme.save_state(out);
  return out.to_bytes();
}

}  // namespace

int main() {
  TrainerConfig config;
  config.max_slots = 480;  // 60 rounds of 4 actors × 2 replicas
  config.reward_window = 50;

  ParallelTrainerConfig pconfig;
  pconfig.actors = 4;
  pconfig.replicas_per_actor = 2;
  pconfig.sync_every_rounds = 8;
  pconfig.queue_capacity = 4;  // tiny ring: exercise the full/empty edges

  std::string ref_bytes;
  std::vector<double> ref_rewards;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<double> rewards;
    config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
    pconfig.threads = threads;
    pconfig.deterministic = true;
    DqnScheme scheme(scheme_config());
    const auto stats = train_parallel(scheme, env_config(), config, pconfig);
    if (stats.slots_trained != config.max_slots) {
      std::fprintf(stderr, "threads=%zu trained %zu slots, expected %zu\n",
                   threads, stats.slots_trained, config.max_slots);
      return 1;
    }
    if (threads == 1) {
      ref_bytes = scheme_bytes(scheme);
      ref_rewards = rewards;
    } else {
      if (rewards != ref_rewards) {
        std::fprintf(stderr,
                     "threads=%zu reward stream differs from threads=1\n",
                     threads);
        return 1;
      }
      if (scheme_bytes(scheme) != ref_bytes) {
        std::fprintf(stderr,
                     "threads=%zu final state differs from threads=1\n",
                     threads);
        return 1;
      }
    }
  }

  // Throughput mode: no determinism claim, but it must be race-free and
  // hit the budget exactly.
  config.on_slot = nullptr;
  pconfig.deterministic = false;
  pconfig.threads = 4;
  DqnScheme scheme(scheme_config());
  const auto stats = train_parallel(scheme, env_config(), config, pconfig);
  if (stats.slots_trained != config.max_slots) {
    std::fprintf(stderr, "throughput mode trained %zu slots, expected %zu\n",
                 stats.slots_trained, config.max_slots);
    return 1;
  }
  std::printf("tsan_train_parallel: OK\n");
  return 0;
}
