#include "serve/engine.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <exception>
#include <filesystem>
#include <utility>

#include "common/check.hpp"

namespace ctj::serve {

namespace {

/// The CPUs the calling thread may run on, ascending (empty off Linux).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

/// Pin the calling thread to `cpu` (best effort; a no-op off Linux).
void bind_to_cpu([[maybe_unused]] int cpu) {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
#endif
}

}  // namespace

void EngineStats::encode(io::ByteWriter& out) const {
  out.u64(submitted);
  out.u64(completed);
  out.u64(failed);
  out.u64(resident);
  out.u64(evictions);
  out.u64(revivals);
  out.u64(slots_total);
}

EngineStats EngineStats::decode(io::ByteReader& in) {
  EngineStats stats;
  stats.submitted = in.u64();
  stats.completed = in.u64();
  stats.failed = in.u64();
  stats.resident = in.u64();
  stats.evictions = in.u64();
  stats.revivals = in.u64();
  stats.slots_total = in.u64();
  return stats;
}

ServeEngine::ServeEngine(const ServeConfig& config) : config_(config) {
  CTJ_CHECK(config.workers > 0);
  CTJ_CHECK(config.max_resident > 0);
  CTJ_CHECK(config.quantum_slots > 0);
  CTJ_CHECK(!config.spool_dir.empty());
  // Worker i runs on CPU i mod n of the creator's affinity mask.
  const std::vector<int> cpus = allowed_cpus();
  workers_.reserve(config.workers);
  for (std::size_t i = 0; i < config.workers; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i % cpus.size()];
    workers_.emplace_back([this, cpu] {
      if (cpu >= 0) bind_to_cpu(cpu);
      worker_loop();
    });
  }
}

ServeEngine::~ServeEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Unfinished tenants are dropped, and so are their spool files (best
  // effort, as on completion).
  for (const auto& [id, tenant] : tenants_) {
    if (tenant->spooled && tenant->state != JobState::kDone) {
      std::error_code ec;
      std::filesystem::remove(spool_path(id), ec);
    }
  }
}

std::string ServeEngine::spool_path(std::uint64_t id) const {
  return config_.spool_dir + "/tenant-" + std::to_string(id) + ".ctjs";
}

std::uint64_t ServeEngine::submit(const JobSpec& spec) {
  spec.validate();  // throws std::invalid_argument before any state changes
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    auto tenant = std::make_unique<Tenant>();
    tenant->id = id;
    tenant->spec = spec;
    queue_.push_back(tenant.get());
    tenants_.emplace(id, std::move(tenant));
    ++submitted_;
  }
  work_cv_.notify_one();
  return id;
}

JobStatus ServeEngine::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Tenant& tenant = *tenants_.at(id);
  JobStatus status;
  status.state = tenant.state;
  status.slots_done = tenant.slots_done;
  status.slots_total = tenant.spec.slots;
  status.evictions = tenant.evictions;
  status.resident = tenant.runner != nullptr;
  return status;
}

std::optional<JobResult> ServeEngine::try_result(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Tenant& tenant = *tenants_.at(id);
  if (tenant.state == JobState::kFailed) {
    throw std::runtime_error("job " + std::to_string(id) + " failed: " +
                             tenant.error);
  }
  if (tenant.state != JobState::kDone) return std::nullopt;
  return tenant.result;
}

JobResult ServeEngine::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Tenant& tenant = *tenants_.at(id);
  done_cv_.wait(lock, [&] {
    return tenant.state == JobState::kDone ||
           tenant.state == JobState::kFailed;
  });
  if (tenant.state == JobState::kFailed) {
    throw std::runtime_error("job " + std::to_string(id) + " failed: " +
                             tenant.error);
  }
  return *tenant.result;
}

void ServeEngine::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return completed_ >= submitted_; });
}

EngineStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats stats;
  stats.submitted = submitted_;
  stats.completed = completed_;
  stats.failed = failed_;
  stats.resident = resident_;
  stats.evictions = evictions_;
  stats.revivals = revivals_;
  stats.slots_total = slots_total_.load(std::memory_order_relaxed);
  return stats;
}

ServeEngine::Tenant* ServeEngine::claim_locked() {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    Tenant* tenant = *it;
    if (tenant->busy) continue;  // another worker is evicting it
    queue_.erase(it);
    tenant->busy = true;
    tenant->state = JobState::kRunning;
    return tenant;
  }
  return nullptr;
}

ServeEngine::Tenant* ServeEngine::pick_eviction_victim_locked() {
  if (resident_ <= config_.max_resident) return nullptr;
  // The queue is in requeue order: its first resident idle tenant is the
  // least recently run.
  for (Tenant* tenant : queue_) {
    if (tenant->runner != nullptr && !tenant->busy) {
      tenant->busy = true;
      return tenant;
    }
  }
  return nullptr;
}

void ServeEngine::worker_loop() {
  for (;;) {
    Tenant* tenant = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (tenant = claim_locked()) != nullptr;
      });
    }
    if (tenant == nullptr) return;  // stopping

    // Stepping, spool I/O and finishing all happen outside the lock; `busy`
    // keeps everyone else away from this tenant and its runner.
    const std::uint64_t id = tenant->id;
    bool failed = false;
    std::string error;
    bool revived = false;
    std::unique_ptr<TenantRunner> fresh;
    std::uint64_t slots_done = 0;
    std::optional<JobResult> result;
    try {
      if (tenant->runner == nullptr) {
        if (tenant->spooled) {
          fresh = TenantRunner::load(spool_path(id), tenant->spec);
          revived = true;
        } else {
          fresh = TenantRunner::create(tenant->spec);
        }
      }
      TenantRunner* runner = fresh ? fresh.get() : tenant->runner.get();
      slots_total_.fetch_add(runner->run(config_.quantum_slots),
                             std::memory_order_relaxed);
      slots_done = runner->slots_done();
      // result() digests the whole scheme state (for DQN it serializes the
      // network, Adam moments and replay), so it runs here, not in the
      // locked hand-back below.
      if (runner->done()) result = runner->result();
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }

    Tenant* victim = nullptr;
    bool requeue = false;
    bool done = false;
    bool drop_spool = false;
    // A finished tenant's runner leaves the table under the lock but is
    // destroyed after it is released.
    std::unique_ptr<TenantRunner> retired;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (fresh) {
        tenant->runner = std::move(fresh);
        ++resident_;
        if (revived) ++revivals_;
      }
      tenant->busy = false;
      if (failed || result) {
        retired = std::move(tenant->runner);
        if (retired) --resident_;
        ++completed_;
        done = true;
      }
      if (failed) {
        tenant->state = JobState::kFailed;
        tenant->error = error;
        ++failed_;
      } else {
        tenant->slots_done = slots_done;
        if (result) {
          result->evictions = tenant->evictions;
          tenant->result = std::move(result);
          tenant->state = JobState::kDone;
          drop_spool = tenant->spooled;
        } else {
          tenant->state = JobState::kQueued;
          queue_.push_back(tenant);
          requeue = true;
        }
      }
      // Enforce the residency cap: pick (and claim) the LRU idle tenant;
      // the save happens below, outside the lock.
      victim = pick_eviction_victim_locked();
    }
    // Without an eviction to do, this worker claims again at once and wakes
    // nobody; with one, another worker may take the requeued tenant.
    if (requeue && victim != nullptr) work_cv_.notify_one();
    retired.reset();
    if (done) {
      done_cv_.notify_all();
      if (drop_spool) {
        std::error_code ec;
        std::filesystem::remove(spool_path(id), ec);  // best effort
      }
    }

    if (victim != nullptr) {
      bool evict_ok = true;
      std::string evict_error;
      try {
        std::filesystem::create_directories(config_.spool_dir);
        victim->runner->save(spool_path(victim->id));
      } catch (const std::exception& e) {
        evict_ok = false;
        evict_error = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        victim->busy = false;
        retired = std::move(victim->runner);
        --resident_;
        if (evict_ok) {
          victim->spooled = true;
          ++victim->evictions;
          ++evictions_;
        } else {
          // Could not spool (disk full, ...): fail the tenant so the error
          // is visible rather than silent, and take it off the queue.
          victim->state = JobState::kFailed;
          victim->error = "eviction failed: " + evict_error;
          queue_.erase(std::find(queue_.begin(), queue_.end(), victim));
          ++completed_;
          ++failed_;
        }
      }
      retired.reset();
      // The victim is claimable again (or, failed, completes).
      if (evict_ok) {
        work_cv_.notify_one();
      } else {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace ctj::serve
