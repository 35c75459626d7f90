// The fleet-scale serve engine: a fixed worker pool multiplexing an
// unbounded set of tenant simulations.
//
// Jobs are submitted as JobSpecs and wait in one FIFO queue of tenants:
// submit() appends a tenant, a worker claims the first queued tenant that
// no other worker is evicting, advances it by one quantum
// (TenantRunner::run), and appends it again until its budget is spent —
// cooperative round-robin over however many tenants are in flight, with one
// OS thread per configured worker.
//
// Bounded residency: at most `max_resident` tenant runners are held in
// memory. When the cap is exceeded the least-recently-run idle tenant is
// evicted — its full state saved to a CTJS spool file — and revived
// transparently the next time a worker claims it. The queue is in requeue
// order, so that tenant is the first resident one in it. If the save fails,
// the tenant fails ("eviction failed: ...") and leaves the queue. Because
// suspend/resume is bit-identical (tenant.hpp), eviction is invisible in the
// results: the serve tests compare full reward streams and final scheme
// state across max_resident = 2 vs unbounded, and across worker counts
// 1/2/4, bitwise.
//
// Locking: one mutex guards the queue, the tenant table and the counters,
// and is held only for bookkeeping, so submit()/status()/try_result() never
// wait behind a tenant's work. Creating, reviving, stepping and spooling a
// runner, and finishing it (JobResult, whose state_crc digests the whole
// scheme state), happen outside the lock while the tenant's `busy` flag
// keeps other workers away; a released runner is destroyed after the lock
// is dropped.
//
// Wakeups: a worker sleeps on one condition variable while no queued tenant
// is claimable. Three events wake one worker: submit(), a requeue that
// leaves the requeuing worker an eviction to do, and the end of a
// successful eviction; stop wakes all. A plain requeue wakes nobody: the
// requeuing worker claims again itself.
// Waking a worker on every requeue cost the submitter its CPU: the woken
// worker preempted it inside notify_one. On the serve_stream benchmark (QL
// jobs at 30/s), traced submit p50 fell from 4.7 ms to 22 µs once requeues
// stopped waking workers and workers were bound to CPUs (below).
//
// CPU binding: worker i is bound to CPU i mod n of the affinity mask of the
// thread that creates the engine (Linux; elsewhere a no-op). Unbound, the
// kernel sometimes kept all three workers of a 4-vCPU host on one CPU for a
// whole run: in three slow serve_stream runs, 187–220 of 200–221 samples
// with all three workers runnable found them on the same CPU, the busiest
// worker took 1 200–1 420 involuntary context switches, and the backlog
// drained at 160–186 jobs/s instead of ~450. Bound, no sample found them
// sharing a CPU and the same runs drained at 620–636 jobs/s.
//
// Determinism: every tenant's trajectory depends only on its JobSpec (all
// state is tenant-local; workers never share RNG or model state), so
// scheduling order, worker placement, quantum size and eviction cannot
// change any result — only wall-clock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"
#include "serve/tenant.hpp"

namespace ctj::serve {

struct ServeConfig {
  /// Worker threads (one runner stepped per worker at a time).
  std::size_t workers = 1;
  /// Maximum tenant runners resident in memory; beyond this the
  /// least-recently-run idle tenant is evicted to its spool file.
  std::size_t max_resident = 256;
  /// Slots a worker advances a tenant per scheduling turn (DQN tenants
  /// round down to whole replica rounds).
  std::size_t quantum_slots = 256;
  /// Directory for eviction spool files (created on demand).
  std::string spool_dir = ".ctj_serve_spool";
  /// Inert: the queue is unbounded and nothing reads this field. It stays
  /// only because the ctjbench serve workloads still set it.
  std::size_t queue_capacity = 4096;
};

struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // done + failed
  std::uint64_t failed = 0;
  std::uint64_t resident = 0;   // runners currently in memory
  std::uint64_t evictions = 0;
  std::uint64_t revivals = 0;
  std::uint64_t slots_total = 0;  // slots stepped across all tenants

  void encode(io::ByteWriter& out) const;
  static EngineStats decode(io::ByteReader& in);
};

class ServeEngine {
 public:
  explicit ServeEngine(const ServeConfig& config);
  /// Stops the workers (in-flight quanta finish; queued work is dropped and
  /// its spool files removed).
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  const ServeConfig& config() const { return config_; }

  /// Validate and enqueue a job; returns its id. Throws
  /// std::invalid_argument when the spec is not runnable.
  std::uint64_t submit(const JobSpec& spec);

  /// Throws std::out_of_range for an unknown id.
  JobStatus status(std::uint64_t id) const;

  /// The result when the job is done; nullopt while it is still running.
  /// Throws std::out_of_range for an unknown id, std::runtime_error (with
  /// the stored error) for a failed job.
  std::optional<JobResult> try_result(std::uint64_t id) const;

  /// Block until the job completes, then return its result (throws like
  /// try_result).
  JobResult wait(std::uint64_t id);

  /// Block until every submitted job has completed or failed.
  void wait_all();

  EngineStats stats() const;

 private:
  struct Tenant {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    /// A worker is stepping, creating, evicting or reviving this tenant;
    /// other workers must not touch it (claims skip it).
    bool busy = false;
    bool spooled = false;  // a spool file holds the current state
    std::unique_ptr<TenantRunner> runner;  // null when evicted/finished
    std::uint64_t slots_done = 0;
    std::uint64_t evictions = 0;
    std::optional<JobResult> result;
    std::string error;
  };

  void worker_loop();
  /// Take the first queued tenant that is not busy off the queue and mark it
  /// running; null when there is none.
  Tenant* claim_locked();
  /// Pick the least-recently-run evictable tenant while over the residency
  /// cap; marks it busy. Caller (worker) performs the save outside the lock.
  Tenant* pick_eviction_victim_locked();
  std::string spool_path(std::uint64_t id) const;

  const ServeConfig config_;

  mutable std::mutex mutex_;  // queue + tenant table + counters
  std::condition_variable done_cv_;
  std::condition_variable work_cv_;  // a queued tenant to claim, or stop
  std::map<std::uint64_t, std::unique_ptr<Tenant>> tenants_;
  /// Queued tenants, in submit/requeue order.
  std::deque<Tenant*> queue_;
  bool stop_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t resident_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t revivals_ = 0;

  std::atomic<std::uint64_t> slots_total_{0};

  std::vector<std::thread> workers_;
};

}  // namespace ctj::serve
