// Tests for the fleet-scale serve subsystem (src/serve): the JobSpec/
// JobResult codecs, tenant-runner determinism against the standalone
// trainer, bit-identical evict/revive on a different thread, wrong-spec
// revival rejection, engine determinism across worker counts and under
// forced eviction, engine scheduling (workers sharing one CPU, requeues that
// wake nobody, failed evictions, dropping queued work on destruction), and
// the unix-socket wire protocol end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"
#include "io/crc32.hpp"
#include "io/format.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "serve/tenant.hpp"
#include "serve/wire.hpp"

using namespace ctj;

namespace {

/// Fresh per-test scratch directory (spool files, checkpoints, sockets).
std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ctj_serve_test_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

serve::JobSpec small_spec(const std::string& scheme, std::uint64_t seed) {
  serve::JobSpec spec;
  spec.scheme = scheme;
  spec.seed = seed;
  spec.reward_window = 128;
  spec.record_rewards = true;
  if (scheme == "dqn") {
    spec.slots = 512;
    spec.replicas = 4;
    spec.history = 4;
    spec.hidden = {16, 16};
  } else {
    spec.slots = 600;
  }
  return spec;
}

/// Every determinism-relevant field of a JobResult (everything except the
/// scheduling-dependent eviction count).
void expect_results_identical(const serve::JobResult& a,
                              const serve::JobResult& b) {
  EXPECT_EQ(a.slots_run, b.slots_run);
  EXPECT_EQ(a.reward_crc, b.reward_crc);
  EXPECT_EQ(a.state_crc, b.state_crc);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.hops, b.hops);
  // Exact FP equality is intended: same spec must mean same bits.
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  EXPECT_EQ(a.reward_sum, b.reward_sum);
  ASSERT_EQ(a.rewards.size(), b.rewards.size());
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Job codecs

TEST(JobCodec, SpecRoundTrip) {
  serve::JobSpec spec;
  spec.scheme = "dqn";
  spec.jammer = jammer::JammerSpec::defaults("adaptive");
  spec.num_channels = 12;
  spec.channels_per_sweep = 3;
  spec.mode = JammerPowerMode::kRandomPower;
  spec.loss_jam = 80.0;
  spec.loss_hop = 40.0;
  spec.seed = 42;
  spec.slots = 1024;
  spec.replicas = 8;
  spec.reward_window = 500;
  spec.history = 6;
  spec.hidden = {24, 24, 12};
  spec.record_rewards = true;

  io::ByteWriter out;
  spec.encode(out);
  io::ByteReader in(out.buffer());
  const serve::JobSpec back = serve::JobSpec::decode(in);
  in.expect_end();
  EXPECT_EQ(back, spec);
}

TEST(JobCodec, SpecRejectsTruncationAndBadVersion) {
  serve::JobSpec spec;
  io::ByteWriter out;
  spec.encode(out);
  const std::string bytes = out.buffer();
  // Truncation at every prefix length must throw, never misdecode.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    io::ByteReader in(std::string_view(bytes).substr(0, len));
    EXPECT_THROW(
        {
          serve::JobSpec::decode(in);
          in.expect_end();
        },
        io::IoError)
        << "prefix " << len;
  }
  std::string versioned = bytes;
  versioned[0] = 99;
  io::ByteReader in(versioned);
  EXPECT_THROW(serve::JobSpec::decode(in), io::IoError);
}

TEST(JobCodec, ResultAndStatusRoundTrip) {
  serve::JobResult result;
  result.slots_run = 4000;
  result.final_mean_reward = -12.5;
  result.reward_sum = -50000.25;
  result.successes = 3000;
  result.jammed_slots = 700;
  result.hops = 300;
  result.reward_crc = 0xDEADBEEF;
  result.state_crc = 0xCAFEF00D;
  result.evictions = 3;
  result.rewards = {1.0, -100.0, 0.5};
  io::ByteWriter out;
  result.encode(out);
  io::ByteReader in(out.buffer());
  const serve::JobResult back = serve::JobResult::decode(in);
  in.expect_end();
  EXPECT_EQ(back.slots_run, result.slots_run);
  EXPECT_EQ(back.reward_crc, result.reward_crc);
  EXPECT_EQ(back.state_crc, result.state_crc);
  EXPECT_EQ(back.evictions, result.evictions);
  EXPECT_EQ(back.rewards, result.rewards);

  serve::JobStatus status;
  status.state = serve::JobState::kRunning;
  status.slots_done = 128;
  status.slots_total = 4000;
  status.evictions = 2;
  status.resident = true;
  io::ByteWriter sout;
  status.encode(sout);
  io::ByteReader sin(sout.buffer());
  const serve::JobStatus sback = serve::JobStatus::decode(sin);
  sin.expect_end();
  EXPECT_EQ(sback.state, status.state);
  EXPECT_EQ(sback.slots_done, status.slots_done);
  EXPECT_TRUE(sback.resident);
}

TEST(JobCodec, ValidateRejectsBadSpecs) {
  serve::JobSpec spec;
  spec.scheme = "nope";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = serve::JobSpec{};
  spec.jammer.archetype = "unregistered_archetype";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = serve::JobSpec{};
  spec.slots = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = serve::JobSpec{};
  spec.scheme = "dqn";
  spec.slots = 1001;
  spec.replicas = 4;  // 1001 % 4 != 0
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = serve::JobSpec{};
  spec.channels_per_sweep = 99;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tenant determinism against the standalone trainer

TEST(TenantRunner, DqnTenantMatchesTrainBatched) {
  const serve::JobSpec spec = small_spec("dqn", 11);

  auto runner = serve::TenantRunner::create(spec);
  ASSERT_EQ(runner->run(1u << 30), spec.slots);
  EXPECT_TRUE(runner->done());
  const serve::JobResult result = runner->result();

  // The reference: core::train_batched on an identically constructed scheme.
  core::DqnScheme scheme(spec.dqn_config());
  std::vector<double> reference;
  core::TrainerConfig trainer;
  trainer.max_slots = static_cast<std::size_t>(spec.slots);
  trainer.reward_window = static_cast<std::size_t>(spec.reward_window);
  trainer.on_slot = [&](std::size_t, double reward) {
    reference.push_back(reward);
  };
  const auto stats = core::train_batched(
      scheme, spec.env_config(), trainer,
      static_cast<std::size_t>(spec.replicas));

  ASSERT_EQ(result.rewards.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.rewards[i], reference[i]) << "slot " << i;
  }
  EXPECT_EQ(result.final_mean_reward, stats.final_mean_reward);

  // Final weights bit-identical: the serialized scheme state must hash the
  // same as the tenant's state_crc.
  io::ContainerWriter out;
  scheme.save_state(out);
  EXPECT_EQ(result.state_crc, io::crc32(out.to_bytes()));
}

TEST(TenantRunner, QuantumSizeIsInvisible) {
  for (const char* scheme : {"dqn", "ql", "passive", "random"}) {
    const serve::JobSpec spec = small_spec(scheme, 21);
    auto one_shot = serve::TenantRunner::create(spec);
    one_shot->run(1u << 30);
    auto chunked = serve::TenantRunner::create(spec);
    while (!chunked->done()) chunked->run(16);
    auto odd = serve::TenantRunner::create(spec);
    while (!odd->done()) odd->run(77);
    expect_results_identical(one_shot->result(), chunked->result());
    expect_results_identical(one_shot->result(), odd->result());
  }
}

TEST(TenantRunner, EvictReviveOnAnotherThreadIsBitIdentical) {
  const std::string dir = scratch_dir("revive");
  for (const char* scheme : {"dqn", "ql", "passive", "random"}) {
    serve::JobSpec spec = small_spec(scheme, 33);
    spec.jammer = jammer::JammerSpec::defaults("sweep");

    auto uninterrupted = serve::TenantRunner::create(spec);
    uninterrupted->run(1u << 30);

    auto first_half = serve::TenantRunner::create(spec);
    first_half->run(static_cast<std::size_t>(spec.slots) / 2);
    const std::string path = dir + "/" + scheme + ".ctjs";
    first_half->save(path);
    first_half.reset();  // evicted

    // Revive and finish on a different thread (the engine's "different
    // worker" case) — thread identity must not matter.
    serve::JobResult revived_result;
    std::thread other([&] {
      auto revived = serve::TenantRunner::load(path, spec);
      EXPECT_EQ(revived->slots_done(), spec.slots / 2);
      revived->run(1u << 30);
      revived_result = revived->result();
    });
    other.join();

    expect_results_identical(uninterrupted->result(), revived_result);
  }
  std::filesystem::remove_all(dir);
}

TEST(TenantRunner, LoadRejectsDifferentSpec) {
  const std::string dir = scratch_dir("reject");
  serve::JobSpec spec = small_spec("ql", 5);
  spec.jammer = jammer::JammerSpec::defaults("sweep");
  auto runner = serve::TenantRunner::create(spec);
  runner->run(64);
  const std::string path = dir + "/tenant.ctjs";
  runner->save(path);

  // A different seed is a different tenant.
  serve::JobSpec other = spec;
  other.seed += 1;
  try {
    serve::TenantRunner::load(path, other);
    FAIL() << "expected kStateMismatch";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }

  // A different adversary archetype is too.
  serve::JobSpec adversary = spec;
  adversary.jammer = jammer::JammerSpec::defaults("reactive");
  try {
    serve::TenantRunner::load(path, adversary);
    FAIL() << "expected kStateMismatch";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  std::filesystem::remove_all(dir);
}

TEST(TenantRunner, LoadRejectsTamperedJammerConfig) {
  const std::string dir = scratch_dir("tamper");
  serve::JobSpec spec = small_spec("ql", 6);
  spec.jammer = jammer::JammerSpec::defaults("sweep");
  auto runner = serve::TenantRunner::create(spec);
  runner->run(64);
  const std::string path = dir + "/tenant.ctjs";
  runner->save(path);

  // Rebuild the container with every chunk intact except JAMRCFG, which now
  // claims a different adversary — the revival gate must catch it even
  // though the stored JobSpec still matches.
  const auto in = io::ContainerReader::from_file(path);
  io::ContainerWriter tampered;
  bool replaced = false;
  for (const auto& info : in.chunks()) {
    if (info.tag == "JAMRCFG") {
      core::write_jammer_config(tampered,
                                jammer::JammerSpec::defaults("reactive"));
      replaced = true;
    } else {
      tampered.add_chunk(info.tag, std::string(in.chunk(info.tag)));
    }
  }
  ASSERT_TRUE(replaced) << "checkpoint unexpectedly had no JAMRCFG chunk";
  const std::string tampered_path = dir + "/tampered.ctjs";
  tampered.write_file(tampered_path);
  try {
    serve::TenantRunner::load(tampered_path, spec);
    FAIL() << "expected kStateMismatch";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  std::filesystem::remove_all(dir);
}

TEST(TenantRunner, ServeProgressChunkLayout) {
  // SRVPRG, field by field: slots_done u64, the reward window (running sum
  // f64, length u64, values f64 oldest first), reward_sum f64, successes,
  // jammed_slots and hops u64, reward_crc u32, recorded rewards f64_vec.
  const std::string dir = scratch_dir("srvprg");
  for (const char* scheme : {"dqn", "ql"}) {
    SCOPED_TRACE(scheme);
    const serve::JobSpec spec = small_spec(scheme, 41);
    auto runner = serve::TenantRunner::create(spec);
    runner->run(static_cast<std::size_t>(spec.slots) / 2);
    const std::string path = dir + "/" + scheme + ".ctjs";
    runner->save(path);
    const serve::JobResult result = runner->result();

    const auto in = io::ContainerReader::from_file(path);
    io::ByteReader r(in.chunk(io::tags::kServeProgress));
    EXPECT_EQ(r.u64(), result.slots_run);
    const double window_sum = r.f64();
    const std::uint64_t window_len = r.u64();
    ASSERT_EQ(window_len, spec.reward_window);
    const std::size_t first = result.rewards.size() - window_len;
    for (std::size_t i = first; i < result.rewards.size(); ++i) {
      EXPECT_EQ(r.f64(), result.rewards[i]) << "slot " << i;
    }
    EXPECT_EQ(window_sum / static_cast<double>(window_len),
              result.final_mean_reward);
    EXPECT_EQ(r.f64(), result.reward_sum);
    EXPECT_EQ(r.u64(), result.successes);
    EXPECT_EQ(r.u64(), result.jammed_slots);
    EXPECT_EQ(r.u64(), result.hops);
    EXPECT_EQ(r.u32(), result.reward_crc);
    EXPECT_EQ(r.f64_vec(), result.rewards);
    r.expect_end();
  }
  std::filesystem::remove_all(dir);
}

TEST(TenantRunner, StateCrcIsCrcOfSchemeChunk) {
  // Pin state_crc to the CRC of the scheme chunk a spool stores. (DQN's is
  // pinned by DqnTenantMatchesTrainBatched.)
  const std::string dir = scratch_dir("statecrc");
  for (const char* scheme : {"ql", "passive", "random"}) {
    SCOPED_TRACE(scheme);
    const serve::JobSpec spec = small_spec(scheme, 51);
    auto runner = serve::TenantRunner::create(spec);
    runner->run(1u << 30);
    const std::string path = dir + "/" + scheme + ".ctjs";
    runner->save(path);
    const auto in = io::ContainerReader::from_file(path);
    const char* tag = spec.scheme == "ql" ? io::tags::kQlState
                                          : io::tags::kFhState;
    EXPECT_EQ(runner->result().state_crc, io::crc32(in.chunk(tag)));
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Engine

std::vector<serve::JobSpec> mixed_fleet() {
  std::vector<serve::JobSpec> jobs;
  const char* schemes[] = {"ql", "passive", "random", "dqn"};
  for (int i = 0; i < 12; ++i) {
    serve::JobSpec spec = small_spec(schemes[i % 4], 200 + i);
    if (i % 3 == 0) spec.jammer = jammer::JammerSpec::defaults("sweep");
    jobs.push_back(spec);
  }
  return jobs;
}

std::vector<serve::JobResult> run_fleet(std::size_t workers,
                                        std::size_t max_resident,
                                        const std::string& spool,
                                        serve::EngineStats* stats_out) {
  serve::ServeConfig config;
  config.workers = workers;
  config.max_resident = max_resident;
  config.quantum_slots = 64;
  config.spool_dir = spool;
  serve::ServeEngine engine(config);
  std::vector<std::uint64_t> ids;
  for (const auto& spec : mixed_fleet()) ids.push_back(engine.submit(spec));
  engine.wait_all();
  std::vector<serve::JobResult> results;
  for (std::uint64_t id : ids) results.push_back(*engine.try_result(id));
  if (stats_out != nullptr) *stats_out = engine.stats();
  return results;
}

/// Results of `specs` run one after another on direct TenantRunners.
std::vector<serve::JobResult> direct_results(
    const std::vector<serve::JobSpec>& specs) {
  std::vector<serve::JobResult> results;
  for (const auto& spec : specs) {
    auto runner = serve::TenantRunner::create(spec);
    runner->run(spec.slots);
    results.push_back(runner->result());
  }
  return results;
}

TEST(ServeEngine, BitIdenticalAcrossWorkerCounts) {
  const std::string dir = scratch_dir("workers");
  const auto one = run_fleet(1, 1024, dir + "/w1", nullptr);
  const auto two = run_fleet(2, 1024, dir + "/w2", nullptr);
  const auto four = run_fleet(4, 1024, dir + "/w4", nullptr);
  ASSERT_EQ(one.size(), two.size());
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_results_identical(one[i], two[i]);
    expect_results_identical(one[i], four[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeEngine, EvictionIsInvisibleInResults) {
  const std::string dir = scratch_dir("evict");
  serve::EngineStats capped_stats;
  const auto unbounded = run_fleet(2, 1024, dir + "/free", nullptr);
  const auto capped = run_fleet(2, 2, dir + "/capped", &capped_stats);
  // 12 tenants through 2 resident slots: eviction must actually happen.
  EXPECT_GT(capped_stats.evictions, 0u);
  EXPECT_GT(capped_stats.revivals, 0u);
  ASSERT_EQ(unbounded.size(), capped.size());
  std::uint64_t evictions_reported = 0;
  for (std::size_t i = 0; i < unbounded.size(); ++i) {
    expect_results_identical(unbounded[i], capped[i]);
    evictions_reported += capped[i].evictions;
  }
  EXPECT_EQ(evictions_reported, capped_stats.evictions);
  EXPECT_EQ(capped_stats.resident, 0u);  // everything finished and released
  // Workers finish tenants (result(), the state CRC) outside the engine
  // lock; what they hand back must equal an uninterrupted direct run.
  const auto jobs = mixed_fleet();
  const auto direct = direct_results(jobs);
  ASSERT_EQ(capped.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].scheme);
    expect_results_identical(direct[i], capped[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeEngine, PolledStatusNeverSeesAHalfFinishedJob) {
  // A reader polling while workers finish tenants must see kDone only with
  // the final slot count, the runner released and the result in place, and
  // slots_done must never go backwards.
  serve::ServeConfig config;
  config.workers = 2;
  config.quantum_slots = 64;
  config.spool_dir = scratch_dir("poll");
  serve::ServeEngine engine(config);
  std::vector<std::uint64_t> ids;
  for (const auto& spec : mixed_fleet()) ids.push_back(engine.submit(spec));
  std::vector<std::uint64_t> seen(ids.size(), 0);
  for (std::size_t done = 0; done < ids.size();) {
    done = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const serve::JobStatus status = engine.status(ids[i]);
      EXPECT_GE(status.slots_done, seen[i]);
      seen[i] = status.slots_done;
      ASSERT_NE(status.state, serve::JobState::kFailed);
      if (status.state != serve::JobState::kDone) continue;
      ++done;
      EXPECT_EQ(status.slots_done, status.slots_total);
      EXPECT_FALSE(status.resident);
      const auto result = engine.try_result(ids[i]);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->slots_run, status.slots_total);
    }
    std::this_thread::yield();
  }
  std::filesystem::remove_all(config.spool_dir);
}

TEST(ServeEngine, RejectsInvalidSpecAndUnknownIds) {
  serve::ServeConfig config;
  config.spool_dir = scratch_dir("invalid");
  serve::ServeEngine engine(config);
  serve::JobSpec bad;
  bad.scheme = "nope";
  EXPECT_THROW(engine.submit(bad), std::invalid_argument);
  EXPECT_THROW(engine.status(1234), std::out_of_range);
  EXPECT_THROW(engine.try_result(1234), std::out_of_range);
  EXPECT_EQ(engine.stats().submitted, 0u);
  std::filesystem::remove_all(config.spool_dir);
}

TEST(ServeEngine, StatusTracksCompletion) {
  serve::ServeConfig config;
  config.spool_dir = scratch_dir("status");
  serve::ServeEngine engine(config);
  const serve::JobSpec spec = small_spec("passive", 3);
  const auto id = engine.submit(spec);
  const serve::JobResult result = engine.wait(id);
  EXPECT_EQ(result.slots_run, spec.slots);
  const serve::JobStatus status = engine.status(id);
  EXPECT_EQ(status.state, serve::JobState::kDone);
  EXPECT_EQ(status.slots_done, status.slots_total);
  EXPECT_FALSE(status.resident);
  std::filesystem::remove_all(config.spool_dir);
}

#ifdef __linux__
TEST(ServeEngine, SingleCpuMaskStillFinishesEveryJob) {
  // Workers bind to CPU i mod n of the creating thread's mask; with one CPU
  // all three share it, and requeues (which wake nobody) and busy-skips
  // must still drive every multi-quantum job to the direct-run result.
  struct MaskGuard {
    cpu_set_t saved;
    ~MaskGuard() { sched_setaffinity(0, sizeof(saved), &saved); }
  } guard;
  ASSERT_EQ(sched_getaffinity(0, sizeof(guard.saved), &guard.saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &guard.saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(small_spec(i % 2 == 0 ? "ql" : "dqn", 300 + i));
  }
  serve::ServeConfig config;
  config.workers = 3;
  config.max_resident = 3;  // evictions, so busy-skips happen too
  config.quantum_slots = 64;
  config.spool_dir = scratch_dir("one_cpu");
  std::vector<serve::JobResult> results;
  {
    serve::ServeEngine engine(config);
    std::vector<std::uint64_t> ids;
    for (const auto& spec : specs) ids.push_back(engine.submit(spec));
    engine.wait_all();
    for (std::uint64_t id : ids) results.push_back(*engine.try_result(id));
    EXPECT_GT(engine.stats().evictions, 0u);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(guard.saved), &guard.saved), 0);
  // After the workers have joined: a worker drops a finished job's spool
  // file just after wait_all() can return.
  std::filesystem::remove_all(config.spool_dir);

  const auto direct = direct_results(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].scheme + " job " + std::to_string(i));
    expect_results_identical(direct[i], results[i]);
  }
}
#endif

TEST(ServeEngine, RequeueWithoutWakeStrandsNothing) {
  // A long job keeps requeueing itself, which wakes no worker; jobs
  // submitted while it runs are woken by submit() and must all finish.
  serve::ServeConfig config;
  config.workers = 3;
  config.quantum_slots = 32;
  config.spool_dir = scratch_dir("requeue");
  serve::ServeEngine engine(config);
  serve::JobSpec long_spec = small_spec("ql", 400);
  long_spec.slots = 6000;
  std::vector<serve::JobSpec> specs = {long_spec};
  std::vector<std::uint64_t> ids = {engine.submit(long_spec)};
  while (engine.status(ids[0]).slots_done == 0) std::this_thread::yield();
  const char* schemes[] = {"passive", "random", "ql"};
  for (int i = 0; i < 6; ++i) {
    specs.push_back(small_spec(schemes[i % 3], 401 + i));
    specs.back().slots = 96;
    ids.push_back(engine.submit(specs.back()));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  engine.wait_all();
  const auto direct = direct_results(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].scheme + " job " + std::to_string(i));
    const auto result = engine.try_result(ids[i]);
    ASSERT_TRUE(result.has_value());
    expect_results_identical(direct[i], *result);
  }
  std::filesystem::remove_all(config.spool_dir);
}

TEST(ServeEngine, FailedEvictionFailsTheTenantOnce) {
  // The spool directory cannot be created (its parent is a regular file),
  // so every eviction fails. A failed tenant must leave the queue: each job
  // ends done (equal to its direct run) or failed, and is counted once.
  const std::string dir = scratch_dir("evict_fail");
  const std::string blocker = dir + "/file";
  std::fclose(std::fopen(blocker.c_str(), "w"));
  serve::ServeConfig config;
  config.workers = 2;
  config.max_resident = 1;
  config.quantum_slots = 64;
  config.spool_dir = blocker + "/spool";
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(small_spec("ql", 500 + i));
    specs.back().slots = 256;
  }
  const auto direct = direct_results(specs);
  serve::ServeEngine engine(config);
  std::vector<std::uint64_t> ids;
  for (const auto& spec : specs) ids.push_back(engine.submit(spec));
  engine.wait_all();
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const serve::JobStatus status = engine.status(ids[i]);
    if (status.state == serve::JobState::kFailed) {
      ++failed;
      try {
        (void)engine.try_result(ids[i]);
        ADD_FAILURE() << "job " << i << " failed without an error";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("eviction failed"),
                  std::string::npos)
            << e.what();
      }
      continue;
    }
    ASSERT_EQ(status.state, serve::JobState::kDone) << "job " << i;
    expect_results_identical(direct[i], *engine.try_result(ids[i]));
  }
  EXPECT_GT(failed, 0u);
  // Nothing keeps running after wait_all(): the counts stay put.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, specs.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.resident, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServeEngine, DestructionDropsQueuedWork) {
  // Two jobs of 10^9 slots through one resident slot: the engine must stop
  // after the quanta in flight instead of running the queued work to the
  // end, and must remove the spool file of the evicted tenant.
  serve::ServeConfig config;
  config.workers = 1;
  config.max_resident = 1;
  config.quantum_slots = 64;
  config.spool_dir = scratch_dir("drop");
  {
    serve::ServeEngine engine(config);
    serve::JobSpec spec = small_spec("ql", 600);
    spec.slots = 1'000'000'000;
    spec.record_rewards = false;
    engine.submit(spec);
    spec.seed = 601;
    engine.submit(spec);
    while (engine.stats().evictions == 0) std::this_thread::yield();
    EXPECT_FALSE(std::filesystem::is_empty(config.spool_dir));
  }
  EXPECT_TRUE(std::filesystem::is_empty(config.spool_dir));
  std::filesystem::remove_all(config.spool_dir);
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(Wire, EndToEndOverUnixSocket) {
  const std::string dir = scratch_dir("wire");
  const std::string socket_path = "/tmp/ctj_wire_" +
                                  std::to_string(::getpid()) + ".sock";
  serve::ServeConfig config;
  config.workers = 2;
  config.spool_dir = dir + "/spool";
  serve::ServeEngine engine(config);
  std::thread server([&] { serve::run_server(engine, socket_path); });
  // Wait for the socket to appear.
  for (int i = 0; i < 500 && !std::filesystem::exists(socket_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  {
    serve::ServeClient client(socket_path);
    const serve::JobSpec spec = small_spec("ql", 77);
    const std::uint64_t id = client.submit(spec);
    EXPECT_GE(id, 1u);

    const auto result = client.result(id, /*wait=*/true);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->slots_run, spec.slots);

    // The wire result must equal the in-process result bit for bit.
    auto reference = serve::TenantRunner::create(spec);
    reference->run(1u << 30);
    expect_results_identical(*result, reference->result());

    const serve::JobStatus status = client.status(id);
    EXPECT_EQ(status.state, serve::JobState::kDone);

    const serve::EngineStats stats = client.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);

    // Unknown id → server relays the error as an exception.
    EXPECT_THROW(client.status(999), std::runtime_error);

    client.shutdown();
  }
  server.join();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  std::filesystem::remove_all(dir);
}

TEST(Wire, MalformedFramesGetErrorReplies) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::ServeConfig config;
  config.spool_dir = scratch_dir("malformed");
  serve::ServeEngine engine(config);
  std::atomic<bool> shutdown_requested{false};
  std::thread server([&] {
    serve::serve_connection(fds[0], engine, shutdown_requested);
    ::close(fds[0]);
  });

  const auto expect_error = [&](std::string_view payload) {
    serve::write_frame(fds[1], payload);
    std::string reply;
    ASSERT_TRUE(serve::read_frame(fds[1], reply));
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(static_cast<std::uint8_t>(reply[0]), serve::wire::kError);
  };

  expect_error("\x63");             // unknown opcode 99
  expect_error(std::string(1, 1));  // kSubmit with no spec payload
  {
    // kSubmit with a corrupt spec (bad version byte).
    io::ByteWriter out;
    out.u8(serve::wire::kSubmit);
    out.u8(250);
    expect_error(out.buffer());
  }
  {
    // kStatus for an id that does not exist.
    io::ByteWriter out;
    out.u8(serve::wire::kStatus);
    out.u64(4242);
    expect_error(out.buffer());
  }
  // The connection must still be healthy: a valid request now succeeds.
  {
    io::ByteWriter out;
    out.u8(serve::wire::kStats);
    serve::write_frame(fds[1], out.buffer());
    std::string reply;
    ASSERT_TRUE(serve::read_frame(fds[1], reply));
    EXPECT_EQ(static_cast<std::uint8_t>(reply[0]), serve::wire::kStatsReply);
  }
  ::close(fds[1]);  // EOF ends serve_connection
  server.join();
  std::filesystem::remove_all(config.spool_dir);
}

}  // namespace
