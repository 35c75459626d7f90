// Parallel actor-learner training (Ape-X-style decoupled acting/learning,
// arXiv:1803.00933, specialized to the paper's slot-level competition).
//
// N actor shards each step their own VectorEnv replica group with a local
// snapshot of the policy network, writing flat transition records into
// per-shard SPSC queues; one learner thread (the caller's) drains those
// queues into a sharded replay buffer and runs SIMD-friendly minibatch
// gradient steps through DqnAgent::train_on_batch, publishing refreshed
// weights back to the actors over a PolicyBus. Actor shards are a fixed
// partition of the rollout — `threads` only controls how many OS threads
// the shards are spread across, so in deterministic mode the output is
// bit-identical for any thread count.
//
// Two scheduling modes:
//
//   deterministic (default): a fixed round-major interleave. In round k
//   every shard steps each of its replicas once (shard order inside a
//   round is immaterial — shards share no state); the learner consumes
//   round k's transitions in shard-major order, takes gradient steps at
//   fixed consumed-slot counts, and publishes weights at epoch gates every
//   sync_every_rounds rounds, where all actors block until the new
//   snapshot is up. At an actor's gate for round k the bus version is
//   exactly k/sync + 1 (the learner cannot publish a later epoch before
//   consuming rounds the actor has not produced yet), so every snapshot an
//   actor ever applies is the same for threads = 1..N — weights and the
//   per-slot reward stream are bit-identical across thread counts.
//
//   throughput (deterministic = false): actors free-run and poll the bus
//   once per round; the learner drains whatever is queued and publishes on
//   a consumed-slot cadence. Maximum hardware utilization, run-to-run
//   reproducibility not guaranteed.
//
// Checkpoint/resume goes through the PR-4 CTJS container: the TRAINPRG
// progress chunk (mode 2) plus the whole agent, the sharded replay rings,
// and every shard's environment replicas, observation windows and RNG
// stream. Deterministic mode cuts only at epoch gates (all actors parked,
// queues provably empty), so a killed-and-resumed run replays the exact
// slot stream of an uninterrupted one; throughput mode quiesces actors at
// a round boundary and drains all queues before cutting.
#pragma once

#include <cstddef>

#include "core/environment.hpp"
#include "core/trainer.hpp"

namespace ctj::core {

struct ParallelTrainerConfig {
  /// Actor shards — the fixed partition of the rollout. Each shard owns
  /// `replicas_per_actor` environment replicas, its own policy copy, RNG
  /// stream and transition queue. Deterministic-mode output depends on
  /// this (and the other schedule knobs), never on `threads`.
  std::size_t actors = 4;
  std::size_t replicas_per_actor = 4;
  /// Worker threads the shards are distributed across (clamped to
  /// `actors`; the learner runs on the calling thread). With 1, all
  /// shards share one worker thread — same output, no parallelism.
  std::size_t threads = 1;
  /// Fixed interleave schedule with bit-identical output across thread
  /// counts (see file comment); false = free-running throughput mode.
  bool deterministic = true;
  /// Weight-publish cadence in rounds (one round = one slot per replica).
  /// In deterministic mode actors gate on the new snapshot every
  /// `sync_every_rounds` rounds; in throughput mode the learner publishes
  /// every `sync_every_rounds × actors × replicas_per_actor` consumed
  /// slots and actors pick it up on their next poll.
  std::size_t sync_every_rounds = 16;
  /// Learner minibatch size (0 = the agent's batch_size). Large batches
  /// amortize the fixed per-step cost over more SIMD-friendly rows.
  std::size_t learner_batch = 0;
  /// One gradient step per this many consumed transitions (0 = the
  /// agent's train_every). learner_batch / train_every_slots is the
  /// sample-reuse ratio; keeping it equal to the serial trainer's
  /// batch_size / train_every makes runs statistically comparable.
  std::size_t train_every_slots = 0;
  /// Per-shard transition queue capacity in records (0 = auto). Rounded
  /// up to a power of two.
  std::size_t queue_capacity = 0;
};

/// Train the scheme's agent with the parallel actor-learner. config.max_slots
/// counts consumed transitions summed over all replicas (as train_batched);
/// in deterministic mode it must be divisible by actors × replicas_per_actor.
/// The reward window, early stop, on_slot callback and checkpoint knobs all
/// run on the learner thread over the consumed-slot stream.
TrainingStats train_parallel(DqnScheme& scheme,
                             const EnvironmentConfig& env_config,
                             const TrainerConfig& config,
                             const ParallelTrainerConfig& pconfig);

}  // namespace ctj::core
