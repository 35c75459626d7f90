#include "core/train_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "core/checkpoint.hpp"
#include "core/vector_env.hpp"
#include "rl/policy_bus.hpp"
#include "rl/replay.hpp"

namespace ctj::core {
namespace {

/// Effective knob values after resolving the 0 = "inherit from the agent
/// config" defaults.
struct Resolved {
  std::size_t actors = 0;
  std::size_t replicas = 0;
  std::size_t threads = 0;
  bool deterministic = true;
  std::size_t sync = 0;
  std::size_t batch = 0;
  std::size_t train_every = 0;
  std::size_t replay_per_actor = 0;
  std::size_t queue_capacity = 0;
  std::size_t min_replay = 0;

  std::size_t total_replicas() const { return actors * replicas; }
};

Resolved resolve(const rl::DqnConfig& agent_config,
                 const ParallelTrainerConfig& p) {
  CTJ_CHECK(p.actors > 0);
  CTJ_CHECK(p.replicas_per_actor > 0);
  CTJ_CHECK(p.sync_every_rounds > 0);
  Resolved r;
  r.actors = p.actors;
  r.replicas = p.replicas_per_actor;
  r.threads = std::clamp<std::size_t>(p.threads, 1, p.actors);
  r.deterministic = p.deterministic;
  r.sync = p.sync_every_rounds;
  r.batch = p.learner_batch > 0 ? p.learner_batch : agent_config.batch_size;
  r.train_every = p.train_every_slots > 0
                      ? p.train_every_slots
                      : std::max<std::size_t>(1, agent_config.train_every);
  r.replay_per_actor =
      std::max<std::size_t>(1, agent_config.replay_capacity / p.actors);
  r.queue_capacity = p.queue_capacity > 0
                         ? p.queue_capacity
                         : std::max<std::size_t>(64, 4 * r.replicas);
  r.min_replay = agent_config.min_replay_before_training;
  return r;
}

std::vector<std::size_t> layer_sizes(const rl::DqnConfig& config) {
  std::vector<std::size_t> sizes;
  sizes.push_back(config.state_dim);
  sizes.insert(sizes.end(), config.hidden.begin(), config.hidden.end());
  sizes.push_back(config.num_actions);
  return sizes;
}

rl::Mlp make_local_net(const rl::DqnConfig& config) {
  // Placeholder init: every shard applies a bus snapshot before its first
  // forward (deterministic mode gates on epoch 1; throughput mode's initial
  // publish precedes worker spawn).
  Rng init_rng(1);
  return rl::Mlp(layer_sizes(config), init_rng);
}

/// The throughput-mode quiesce point: workers park at round boundaries
/// while the learner drains their queues dry and cuts a checkpoint.
class PauseGate {
 public:
  void request_pause() {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
    paused_hint_.store(true, std::memory_order_release);
  }

  bool all_parked(std::size_t count) const {
    return parked_.load(std::memory_order_acquire) >= count;
  }

  void resume() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      paused_ = false;
      paused_hint_.store(false, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Wake every parked worker so they can observe a stop request.
  void release_all() { cv_.notify_all(); }

  /// Worker side, top of each round. Returns false when `stop` was
  /// requested; blocks while the gate is paused.
  bool park_if_paused(const std::atomic<bool>& stop) {
    if (!paused_hint_.load(std::memory_order_acquire)) {
      return !stop.load(std::memory_order_acquire);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (paused_ && !stop.load(std::memory_order_acquire)) {
      parked_.fetch_add(1, std::memory_order_release);
      cv_.wait(lock, [&] {
        return !paused_ || stop.load(std::memory_order_acquire);
      });
      parked_.fetch_sub(1, std::memory_order_release);
    }
    return !stop.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool paused_ = false;  // guarded by mutex_
  std::atomic<bool> paused_hint_{false};
  std::atomic<std::size_t> parked_{0};
};

/// One actor shard: an environment replica group, its observation windows,
/// a local policy copy, an exploration RNG stream and the outbound SPSC
/// transition queue. Everything here is touched by exactly one worker
/// thread while the run is live; the learner reads it only at quiesce
/// points (bus gate or pause gate, both of which order the accesses).
struct ActorShard {
  ActorShard(std::size_t id_, const EnvironmentConfig& env_config,
             const DqnScheme::Config& scheme_config,
             const rl::DqnConfig& agent_config, const Resolved& r)
      : id(id_),
        num_actions(agent_config.num_actions),
        rollout(env_config, scheme_config, r.replicas),
        rng(agent_config.seed ^ (0x9E3779B97F4A7C15ULL * (id_ + 1))),
        net(make_local_net(agent_config)),
        queue(r.queue_capacity, agent_config.state_dim),
        weights_scratch(net.param_count()) {}

  void apply_snapshot() { net.copy_flat_from(weights_scratch); }

  /// One round: one ε-greedy decision + environment step + queued
  /// transition per replica. Returns false when `stop` fired while
  /// waiting for queue space.
  bool run_round(const std::atomic<bool>& stop) {
    const auto act = [&](const rl::Matrix& states,
                         std::span<std::size_t> actions) {
      net.forward_scratch(states, q, scratch_a, scratch_b);
      const auto& kernels = kern::ops();
      for (std::size_t r = 0; r < actions.size(); ++r) {
        std::size_t a =
            kernels.row_argmax(q.data() + r * num_actions, num_actions);
        // Same per-replica draw order as DqnAgent::act_batch: a bernoulli
        // per replica, an index only on explore.
        if (eps > 0.0 && rng.bernoulli(eps)) a = rng.index(num_actions);
        actions[r] = a;
      }
    };
    const auto emit = [&](std::size_t r) {
      double* rec;
      while ((rec = queue.try_acquire()) == nullptr) {
        if (stop.load(std::memory_order_acquire)) return false;
        std::this_thread::yield();
      }
      rl::pack_transition(rec, rollout.actions()[r],
                          rollout.venv().rewards()[r],
                          /*done=*/false,  // continuing competition
                          rollout.pre_state(r), rollout.windows().row(r));
      queue.commit();
      return true;
    };
    return rollout.step(act, emit);
  }

  const std::size_t id;
  const std::size_t num_actions;
  DqnRollout rollout;
  Rng rng;
  rl::Mlp net;
  rl::TransitionQueue queue;
  double eps = 0.0;
  std::uint64_t last_seen = 0;  // bus version currently applied
  // Per-round forward scratch (worker-thread only).
  rl::Matrix q, scratch_a, scratch_b;
  std::vector<double> weights_scratch;
};

class ParallelRun {
 public:
  ParallelRun(DqnScheme& scheme, const EnvironmentConfig& env_config,
              const TrainerConfig& config, const Resolved& r)
      : scheme_(scheme),
        agent_(scheme.agent()),
        config_(config),
        r_(r),
        bus_(agent_.param_count()),
        replay_(r.actors, r.replay_per_actor, agent_.config().state_dim,
                agent_.config().num_actions),
        flat_(agent_.param_count()),
        progress_{.mode = 2,
                  .replicas = r.total_replicas(),
                  .window = RewardWindow(config.reward_window)},
        learner_rng_(agent_.config().seed ^ 0xD1B54A32D192ED03ULL) {
    shards_.reserve(r_.actors);
    for (std::size_t s = 0; s < r_.actors; ++s) {
      EnvironmentConfig shard_env = env_config;
      // Replica ids stay globally contiguous: shard s's replica i runs
      // with seed env_config.seed + s·replicas + i.
      shard_env.seed = env_config.seed + s * r_.replicas;
      shards_.push_back(std::make_unique<ActorShard>(
          s, shard_env, scheme.config(), agent_.config(), r_));
    }
  }

  TrainingStats run() {
    const auto t0 = std::chrono::steady_clock::now();
    scheme_.set_training(true);

    if (should_resume_checkpoint(config_)) load_checkpoint();
    next_step_at_ =
        (progress_.slots_trained / r_.train_every + 1) * r_.train_every;
    // Restore the bus to the snapshot actors held at the cut. Deterministic
    // mid-epoch resumes gate on it; throughput resumes start from it.
    if (published_version_ > 0) {
      bus_.publish(flat_, eps_pub_, published_version_);
    }

    if (!progress_.early_stopped &&
        progress_.slots_trained < config_.max_slots) {
      try {
        if (r_.deterministic) {
          run_deterministic();
        } else {
          run_throughput();
        }
      } catch (...) {
        shutdown_workers();
        throw;
      }
    }
    shutdown_workers();
    if (error_) std::rethrow_exception(error_);

    // Throughput mode: workers may have stopped mid-round with committed
    // transitions still queued — consume what budget allows so they are
    // not lost. (Deterministic completion leaves the queues empty.)
    if (!r_.deterministic) {
      drain_queues(std::numeric_limits<std::size_t>::max());
    }

    if (config_.checkpoint) save_checkpoint();
    return progress_.stats(t0);
  }

 private:
  void run_deterministic() {
    CTJ_CHECK_MSG(
        config_.max_slots % r_.total_replicas() == 0,
        "deterministic mode needs max_slots divisible by actors × replicas");
    const std::size_t total_rounds = config_.max_slots / r_.total_replicas();
    spawn_workers();
    const std::size_t every =
        config_.checkpoint ? config_.checkpoint->every_slots : 0;
    std::size_t next_save =
        next_checkpoint_after(progress_.slots_trained, every);
    for (std::uint64_t k = start_round_; k < total_rounds; ++k) {
      if (k % r_.sync == 0) {
        if (config_.checkpoint && k > start_round_ &&
            progress_.slots_trained >= next_save &&
            progress_.slots_trained < config_.max_slots) {
          // Every worker is (or is about to be) parked at this epoch's
          // gate with all prior rounds consumed, so the queues are empty
          // and all shard state is quiescent — a clean cut.
          if (bus_.wait_waiters(num_workers_)) {
            save_checkpoint();
            next_save = next_checkpoint_after(progress_.slots_trained, every);
          }
        }
        publish(k / r_.sync + 1);
      }
      for (std::size_t a = 0; a < r_.actors; ++a) {
        for (std::size_t i = 0; i < r_.replicas; ++i) {
          const double* rec = wait_front(a);
          if (rec == nullptr) return;  // stop / worker failure
          consume_slot(a, rec);
          shards_[a]->queue.pop();
          if (progress_.early_stopped) {
            initiate_stop();
            return;
          }
        }
      }
    }
  }

  void run_throughput() {
    publish(published_version_ + 1);
    spawn_workers();
    const std::size_t every =
        config_.checkpoint ? config_.checkpoint->every_slots : 0;
    std::size_t next_save =
        next_checkpoint_after(progress_.slots_trained, every);
    const std::size_t publish_every = r_.sync * r_.total_replicas();
    std::size_t next_publish = progress_.slots_trained + publish_every;
    while (progress_.slots_trained < config_.max_slots &&
           !progress_.early_stopped) {
      if (stop_.load(std::memory_order_acquire)) return;  // worker failure
      const bool any = drain_queues(r_.replicas);
      if (progress_.early_stopped ||
          progress_.slots_trained >= config_.max_slots) {
        break;
      }
      if (progress_.slots_trained >= next_publish) {
        publish(published_version_ + 1);
        next_publish = progress_.slots_trained + publish_every;
      }
      if (config_.checkpoint && progress_.slots_trained >= next_save &&
          progress_.slots_trained < config_.max_slots) {
        if (quiesce_checkpoint()) {
          next_save = next_checkpoint_after(progress_.slots_trained, every);
        }
      }
      if (!any) std::this_thread::yield();
    }
    initiate_stop();
  }

  /// Throughput-mode checkpoint: park every worker at a round boundary,
  /// drain all queues dry, cut, resume. Returns false when the run ended
  /// (stop/early-stop/budget) before the cut could be taken.
  bool quiesce_checkpoint() {
    gate_.request_pause();
    while (!gate_.all_parked(num_workers_)) {
      if (stop_.load(std::memory_order_acquire) || progress_.early_stopped ||
          progress_.slots_trained >= config_.max_slots) {
        gate_.resume();
        return false;
      }
      // Keep draining: a worker blocked on a full queue cannot reach the
      // gate until the learner makes space.
      drain_queues(r_.replicas);
      std::this_thread::yield();
    }
    for (;;) {
      if (progress_.early_stopped ||
          progress_.slots_trained >= config_.max_slots) {
        gate_.resume();
        return false;
      }
      if (!drain_queues(std::numeric_limits<std::size_t>::max())) break;
    }
    save_checkpoint();
    gate_.resume();
    return true;
  }

  /// Consume up to `budget` queued transitions per shard. Returns whether
  /// anything was consumed.
  bool drain_queues(std::size_t budget) {
    bool any = false;
    for (std::size_t a = 0; a < r_.actors; ++a) {
      for (std::size_t i = 0; i < budget; ++i) {
        if (progress_.slots_trained >= config_.max_slots ||
            progress_.early_stopped) {
          return any;
        }
        const double* rec = shards_[a]->queue.try_front();
        if (rec == nullptr) break;
        consume_slot(a, rec);
        shards_[a]->queue.pop();
        any = true;
      }
    }
    return any;
  }

  /// Learner bookkeeping for one consumed transition: replay append,
  /// reward window, on_slot, early-stop test, and the gradient step due
  /// at fixed consumed-slot counts.
  void consume_slot(std::size_t shard, const double* rec) {
    replay_.append(shard, rec);
    progress_.record(rec[rl::kTransReward], config_);
    if (progress_.slots_trained >= next_step_at_) {
      if (replay_.size() >= r_.min_replay) {
        replay_.sample_into(r_.batch, learner_rng_, batch_);
        agent_.train_on_batch(batch_.states, batch_.next_states,
                              batch_.actions, batch_.rewards, batch_.dones);
      }
      next_step_at_ += r_.train_every;
    }
  }

  void publish(std::uint64_t version) {
    agent_.online_network().copy_flat_to(flat_);
    eps_pub_ = rl::DqnAgent::epsilon_for(agent_.config(),
                                         progress_.slots_trained);
    bus_.publish(flat_, eps_pub_, version);
    published_version_ = version;
  }

  /// Block until shard `a`'s queue has a record (returns it) or the run
  /// stopped (nullptr).
  const double* wait_front(std::size_t a) {
    for (;;) {
      if (const double* rec = shards_[a]->queue.try_front()) return rec;
      if (stop_.load(std::memory_order_acquire)) return nullptr;
      std::this_thread::yield();
    }
  }

  void spawn_workers() {
    num_workers_ = std::min(r_.threads, r_.actors);
    workers_.reserve(num_workers_);
    for (std::size_t w = 0; w < num_workers_; ++w) {
      const std::size_t lo = w * r_.actors / num_workers_;
      const std::size_t hi = (w + 1) * r_.actors / num_workers_;
      workers_.emplace_back([this, lo, hi] {
        try {
          worker_main(lo, hi);
        } catch (...) {
          fail(std::current_exception());
        }
      });
    }
  }

  void worker_main(std::size_t lo, std::size_t hi) {
    const std::size_t total_rounds =
        config_.max_slots / r_.total_replicas();  // deterministic mode only
    for (std::uint64_t k = start_round_;; ++k) {
      if (r_.deterministic && k >= total_rounds) return;
      for (std::size_t s = lo; s < hi; ++s) {
        ActorShard& shard = *shards_[s];
        if (r_.deterministic) {
          // Epoch gate, plus the first round after a mid-epoch resume
          // (where k/sync + 1 is the stored snapshot, republished before
          // the workers were spawned). At a gate for round k the bus
          // version is exactly k/sync + 1 (see header), so the snapshot
          // applied here is the same whatever the thread count.
          if (k % r_.sync == 0 || k == start_round_) {
            if (!bus_.wait_version(k / r_.sync + 1, shard.weights_scratch,
                                   shard.eps)) {
              return;
            }
            shard.apply_snapshot();
          }
        } else {
          if (!gate_.park_if_paused(stop_)) return;
          if (bus_.fetch_if_newer(shard.last_seen, shard.weights_scratch,
                                  shard.eps)) {
            shard.apply_snapshot();
          }
        }
        if (!shard.run_round(stop_)) return;
      }
    }
  }

  void fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::move(error);
    }
    initiate_stop();
  }

  void initiate_stop() {
    stop_.store(true, std::memory_order_release);
    bus_.stop();
    gate_.release_all();
  }

  void shutdown_workers() {
    initiate_stop();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }

  void save_checkpoint() {
    io::ContainerWriter out = begin_trainer_checkpoint(
        progress_, config_, shards_.front()->rollout.jammer_spec(), scheme_);

    io::ByteWriter pw;
    pw.u64(r_.actors);
    pw.u64(r_.replicas);
    pw.u8(r_.deterministic ? 1 : 0);
    pw.u64(r_.sync);
    pw.u64(r_.batch);
    pw.u64(r_.train_every);
    pw.u64(r_.replay_per_actor);
    // The snapshot actors currently hold (the last publish). The agent's
    // online weights have trained past it, so a resume must republish this
    // exact snapshot, not a fresh flatten, for actors to match.
    pw.u64(published_version_);
    pw.f64(eps_pub_);
    pw.f64_array(flat_);
    pw.str(learner_rng_.serialize_state());
    out.add_chunk(io::tags::kParallelTrain, pw.take());

    io::ByteWriter rw;
    replay_.save_state(rw);
    out.add_chunk(io::tags::kShardReplay, rw.take());

    io::ByteWriter sw;
    sw.u64(r_.actors);
    for (const auto& shard : shards_) {
      shard->rollout.venv().save_state(sw);
      shard->rollout.windows().save_state(sw);
      sw.str(shard->rng.serialize_state());
    }
    out.add_chunk(io::tags::kActorShards, sw.take());
    out.write_file(config_.checkpoint->path);
  }

  void load_checkpoint() {
    const io::ContainerReader in =
        io::ContainerReader::from_file(config_.checkpoint->path);
    progress_ =
        read_train_progress(in, /*mode=*/2, r_.total_replicas(), config_);
    check_jammer_config(in, shards_.front()->rollout.jammer_spec());
    // An early-stopped checkpoint is the final cut of a finished run:
    // nothing to rebuild, the resumed call reports stats and returns.
    if (progress_.early_stopped) return;

    const auto mismatch = [](const std::string& what) -> io::IoError {
      return io::IoError(io::ErrorKind::kStateMismatch,
                         "checkpoint parallel-trainer state differs in " +
                             what);
    };
    io::ByteReader pr(in.chunk(io::tags::kParallelTrain));
    if (pr.u64() != r_.actors) throw mismatch("actor count");
    if (pr.u64() != r_.replicas) throw mismatch("replicas per actor");
    if ((pr.u8() != 0) != r_.deterministic) throw mismatch("schedule mode");
    if (pr.u64() != r_.sync) throw mismatch("sync_every_rounds");
    if (pr.u64() != r_.batch) throw mismatch("learner batch");
    if (pr.u64() != r_.train_every) throw mismatch("train_every_slots");
    if (pr.u64() != r_.replay_per_actor) throw mismatch("replay capacity");
    published_version_ = pr.u64();
    eps_pub_ = pr.f64();
    pr.f64_array(flat_);
    const std::string learner_rng_text = pr.str();
    pr.expect_end();

    scheme_.load_state(in);

    io::ByteReader rr(in.chunk(io::tags::kShardReplay));
    replay_.load_state(rr);
    rr.expect_end();

    io::ByteReader sr(in.chunk(io::tags::kActorShards));
    if (sr.u64() != r_.actors) throw mismatch("actor count");
    for (auto& shard : shards_) {
      shard->rollout.venv().load_state(sr);
      shard->rollout.windows().load_state(sr);
      const std::string rng_text = sr.str();
      try {
        shard->rng.restore_state(rng_text);
      } catch (const CheckFailure&) {
        throw io::IoError(io::ErrorKind::kBadPayload, "actor RNG state");
      }
    }
    sr.expect_end();

    try {
      learner_rng_.restore_state(learner_rng_text);
    } catch (const CheckFailure&) {
      throw io::IoError(io::ErrorKind::kBadPayload, "learner RNG state");
    }

    if (r_.deterministic) {
      // Deterministic cuts happen only at round boundaries (periodic cuts
      // at epoch gates, the final cut at the budget end), so the consumed
      // slot count identifies the resume round exactly.
      if (progress_.slots_trained % r_.total_replicas() != 0) {
        throw io::IoError(io::ErrorKind::kBadPayload,
                          "deterministic checkpoint not at a round boundary");
      }
      start_round_ = progress_.slots_trained / r_.total_replicas();
      // At an epoch-gate cut the epoch's publish has not happened yet
      // (stored version = start/sync, republished fresh at the gate);
      // mid-epoch (budget extension from a final cut), workers re-apply
      // the stored snapshot at version start/sync + 1.
      const std::uint64_t expected =
          start_round_ / r_.sync + (start_round_ % r_.sync == 0 ? 0 : 1);
      if (published_version_ != expected) {
        throw io::IoError(
            io::ErrorKind::kBadPayload,
            "checkpoint publish version inconsistent with slot count");
      }
    }
  }

  DqnScheme& scheme_;
  rl::DqnAgent& agent_;
  const TrainerConfig& config_;
  const Resolved r_;
  rl::PolicyBus bus_;
  rl::ShardedReplay replay_;
  std::vector<double> flat_;  // publish scratch
  std::vector<std::unique_ptr<ActorShard>> shards_;
  std::vector<std::thread> workers_;
  std::size_t num_workers_ = 0;
  PauseGate gate_;
  std::atomic<bool> stop_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;  // first worker failure

  TrainProgress progress_;
  Rng learner_rng_;
  std::uint64_t published_version_ = 0;
  double eps_pub_ = 0.0;  // ε of the last published snapshot
  std::size_t next_step_at_ = 0;
  std::size_t start_round_ = 0;
  rl::Minibatch batch_;  // learner minibatch scratch
};

}  // namespace

TrainingStats train_parallel(DqnScheme& scheme,
                             const EnvironmentConfig& env_config,
                             const TrainerConfig& config,
                             const ParallelTrainerConfig& pconfig) {
  CTJ_CHECK(config.max_slots > 0);
  CTJ_CHECK(config.reward_window > 0);
  const Resolved r = resolve(scheme.agent().config(), pconfig);
  ParallelRun run(scheme, env_config, config, r);
  return run.run();
}

}  // namespace ctj::core
