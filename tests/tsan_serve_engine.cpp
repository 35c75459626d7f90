// ThreadSanitizer program for the serve engine: the worker pool, the claim
// queue and its wakeups, the eviction path and unlocked tenant finishing all
// exercised under contention while a reader polls status and results, with
// a determinism check on top. Built with TSan instrumentation (and
// engine.cpp compiled into this binary so the scheduler itself is
// instrumented) whenever the toolchain supports it — see tests/CMakeLists.
//
// Exit code 0 = no races reported and results bit-identical across worker
// counts; TSan itself fails the process on a race.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hpp"

using namespace ctj;

namespace {

std::vector<serve::JobSpec> make_jobs() {
  std::vector<serve::JobSpec> jobs;
  const char* schemes[] = {"ql", "passive", "random"};
  for (int i = 0; i < 12; ++i) {
    serve::JobSpec spec;
    spec.scheme = schemes[i % 3];
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    spec.slots = 384;
    spec.reward_window = 128;
    if (i % 4 == 0) spec.jammer = jammer::JammerSpec::defaults("sweep");
    jobs.push_back(spec);
  }
  return jobs;
}

std::vector<serve::JobResult> run_fleet(std::size_t workers,
                                        std::size_t max_resident,
                                        const std::string& spool) {
  serve::ServeConfig config;
  config.workers = workers;
  config.max_resident = max_resident;
  config.quantum_slots = 64;
  config.spool_dir = spool;
  serve::ServeEngine engine(config);
  std::vector<std::uint64_t> ids;
  for (const auto& spec : make_jobs()) ids.push_back(engine.submit(spec));
  // A reader polls every job while workers step, spool and finish tenants
  // outside the engine lock.
  std::thread poller([&] {
    while (engine.stats().completed < ids.size()) {
      for (std::uint64_t id : ids) {
        (void)engine.status(id);
        (void)engine.try_result(id);
      }
    }
  });
  std::vector<serve::JobResult> results;
  for (std::uint64_t id : ids) results.push_back(engine.wait(id));
  poller.join();
  return results;
}

/// Destroy an engine mid-fleet: workers finish the quanta in flight, stop
/// claiming, and the destructor drops the queued jobs and their spool files.
void stop_mid_fleet(const std::string& spool) {
  serve::ServeConfig config;
  config.workers = 4;
  config.max_resident = 4;
  config.quantum_slots = 64;
  config.spool_dir = spool;
  serve::ServeEngine engine(config);
  for (serve::JobSpec spec : make_jobs()) {
    spec.slots = 1u << 20;
    engine.submit(spec);
  }
  while (engine.stats().evictions == 0) std::this_thread::yield();
}

}  // namespace

int main() {
  // Tight residency cap (4 << 12 jobs) forces the evict/revive path to run
  // concurrently with stepping; 4 workers contend on the claim queue.
  const auto contended = run_fleet(4, 4, "tsan_serve_spool_a");
  const auto serial = run_fleet(1, 1024, "tsan_serve_spool_b");
  if (contended.size() != serial.size()) {
    std::fprintf(stderr, "result count mismatch\n");
    return 1;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (contended[i].reward_crc != serial[i].reward_crc ||
        contended[i].state_crc != serial[i].state_crc ||
        contended[i].slots_run != serial[i].slots_run) {
      std::fprintf(stderr, "job %zu diverged across worker counts\n", i);
      return 1;
    }
  }
  stop_mid_fleet("tsan_serve_spool_c");
  std::printf("tsan_serve_engine: %zu jobs bit-identical across 4w/cap4 vs "
              "1w/uncapped; stopped mid-fleet\n",
              serial.size());
  return 0;
}
