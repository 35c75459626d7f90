#include "serve/engine.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <exception>
#include <filesystem>
#include <limits>
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

ServeEngine::ServeEngine(const ServeConfig& config)
    : config_(config), ready_(config.queue_capacity) {
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
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
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
    tenants_.emplace(id, std::move(tenant));
    ++submitted_;
  }
  push_ready(id, /*wake=*/true);
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

void ServeEngine::push_ready(std::uint64_t id, bool wake) {
  // The ring covers queue_capacity in-flight tenants; beyond that, yield
  // until a worker drains a slot (ids are small, so no work is lost).
  while (!ready_.try_push(id)) std::this_thread::yield();
  if (!wake) return;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

bool ServeEngine::pop_ready(std::uint64_t& id) {
  for (;;) {
    if (ready_.try_pop(id)) return true;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    // Re-check under the lock: a pusher must take wake_mutex_ to notify, so
    // a push between the failed pop above and wait() below cannot be lost.
    if (ready_.try_pop(id)) return true;
    if (stop_) return false;
    wake_cv_.wait(lock);
  }
}

ServeEngine::Tenant* ServeEngine::pick_eviction_victim_locked() {
  if (resident_ <= config_.max_resident) return nullptr;
  Tenant* victim = nullptr;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (auto& [id, tenant] : tenants_) {
    if (tenant->runner == nullptr || tenant->busy ||
        tenant->state != JobState::kQueued) {
      continue;
    }
    if (tenant->last_run_stamp < oldest) {
      oldest = tenant->last_run_stamp;
      victim = tenant.get();
    }
  }
  if (victim != nullptr) victim->busy = true;
  return victim;
}

void ServeEngine::worker_loop() {
  std::uint64_t id;
  while (pop_ready(id)) {
    Tenant* tenant;
    bool claimed = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tenant = tenants_.at(id).get();
      // busy means another worker is evicting this tenant right now; put the
      // id back and take the next one instead.
      if (!tenant->busy) {
        tenant->busy = true;
        tenant->state = JobState::kRunning;
        claimed = true;
      }
    }
    if (!claimed) {
      // This worker pops again at once, so it wakes nobody; the yield lets
      // the evicting worker finish if both share a CPU.
      push_ready(id, /*wake=*/false);
      std::this_thread::yield();
      continue;
    }

    // Stepping, spool I/O and finishing all happen outside the lock; `busy`
    // keeps everyone else away from this tenant and its runner.
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
          tenant->last_run_stamp = ++clock_;
          requeue = true;
        }
      }
      // Enforce the residency cap: pick (and claim) the LRU idle tenant;
      // the save happens below, outside the lock.
      victim = pick_eviction_victim_locked();
    }
    retired.reset();
    if (done) {
      done_cv_.notify_all();
      if (drop_spool) {
        std::error_code ec;
        std::filesystem::remove(spool_path(id), ec);  // best effort
      }
    }
    // Without an eviction to do, this worker pops again at once and wakes
    // nobody; with one, another worker may take the tenant meanwhile.
    if (requeue) push_ready(id, /*wake=*/victim != nullptr);

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
          // is visible rather than silent.
          victim->state = JobState::kFailed;
          victim->error = "eviction failed: " + evict_error;
          ++completed_;
          ++failed_;
        }
      }
      retired.reset();
      if (!evict_ok) done_cv_.notify_all();
    }
  }
}

}  // namespace ctj::serve
