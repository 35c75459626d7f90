// The `serve_sweep` and `serve_stream` workloads: tenant jobs through one
// serve::ServeEngine, submitted and polled by a single generator thread.
#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/engine.hpp"

namespace ctj::ctjbench {

namespace {

using benchstats::median;
using serve::JobResult;
using serve::JobSpec;

// 3 workers plus the generator thread: at most 4 threads in the process.
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kQuantum = 256;
constexpr std::size_t kCrcSamples = 16;
constexpr std::size_t kReplaySamples = 50;
// A closed batch that has not drained by then has stalled.
constexpr double kBatchDrainLimitS = 120.0;
// Span names are string literals, so spans never own their names.
struct SchemeLabels {
  const char* scheme;
  const char* run;
  const char* result;
};
constexpr SchemeLabels kLabels[] = {
    {"dqn", "serve.tenant_run.dqn", "serve.result.dqn"},
    {"ql", "serve.tenant_run.ql", "serve.result.ql"},
    {"passive", "serve.tenant_run.passive", "serve.result.passive"},
    {"random", "serve.tenant_run.random", "serve.result.random"},
};
constexpr const char* kStreamSchemes[] = {"ql", "ql", "passive",
                                          "ql", "ql", "random"};
constexpr const char* kStreamJammers[] = {"sweep", "adaptive", "reactive",
                                          "duty_cycle", "colluding"};

/// bench_serve's DQN tenant: 4 replicas, 24×24 net, 512 transitions.
JobSpec sweep_spec(std::uint64_t seed) {
  JobSpec spec;
  spec.scheme = "dqn";
  spec.seed = seed;
  spec.replicas = 4;
  spec.history = 4;
  spec.hidden = {24, 24};
  spec.reward_window = 256;
  spec.slots = 512;
  return spec;
}

/// Interactive per-slot tenants rotating over schemes × adversaries.
JobSpec stream_spec(std::uint64_t seed, std::size_t i) {
  JobSpec spec;
  spec.scheme = kStreamSchemes[i % 6];
  spec.jammer = jammer::JammerSpec::defaults(kStreamJammers[i % 5]);
  spec.seed = seed;
  spec.reward_window = 256;
  spec.slots = 2048;
  return spec;
}

serve::ServeConfig engine_config(std::size_t max_resident,
                                 const std::string& spool_dir) {
  serve::ServeConfig config;
  config.workers = kWorkers;
  config.max_resident = max_resident;
  config.quantum_slots = kQuantum;
  config.spool_dir = spool_dir;
  config.queue_capacity = 8192;
  return config;
}

/// Quanta the engine runs for one spec (DQN quanta round down to whole
/// replica rounds).
std::uint64_t quanta_of(const JobSpec& spec) {
  const std::uint64_t round = spec.scheme == "dqn" ? spec.replicas : 1;
  const std::uint64_t q =
      std::max<std::uint64_t>(round, kQuantum - kQuantum % round);
  return (spec.slots + q - 1) / q;
}

struct StageRun {
  std::vector<double> latency_ms;  // completion − due, finished jobs only
  std::vector<std::optional<JobResult>> results;
  double wall_s = 0.0;   // first due → last completion
  double drain_s = 0.0;  // last due → last completion
  std::uint64_t failed = 0;
  std::uint64_t unfinished = 0;
  double late_ms_max = 0.0;
  std::vector<double> first_quantum_ms;
};

/// Submit each spec at its due time (seconds from the stage start) and poll
/// for completions at ≤ 0.5 ms intervals until all are done or
/// `drain_limit_s` after the last due time has passed. Latency counts from
/// the due time, so a stalled generator shows. With an enabled tracer,
/// submits are spans and every tenth job's first-quantum wait is read from
/// status() polls.
StageRun run_stage(serve::ServeEngine& engine,
                   const std::vector<JobSpec>& specs,
                   const std::vector<double>& due_s, double drain_limit_s,
                   Tracer& tracer) {
  const std::size_t n = specs.size();
  StageRun out;
  out.results.resize(n);
  std::vector<std::uint64_t> ids(n, 0);
  std::vector<std::size_t> pending;
  std::vector<std::size_t> awaiting_start;
  std::uint64_t seen_completed = engine.stats().completed;
  const double last_due = due_s.empty() ? 0.0 : due_s.back();
  const Clock::time_point t0 = Clock::now();
  const auto elapsed = [&] { return seconds_between(t0, Clock::now()); };
  double last_done = 0.0;
  std::size_t next = 0;

  while (next < n || !pending.empty()) {
    while (next < n && due_s[next] <= elapsed()) {
      tracer.timed("serve.submit", next, -1,
                   [&] { ids[next] = engine.submit(specs[next]); });
      const double submitted = elapsed();
      if (tracer.enabled() && next % 10 == 0) awaiting_start.push_back(next);
      out.late_ms_max =
          std::max(out.late_ms_max, (submitted - due_s[next]) * 1e3);
      pending.push_back(next);
      ++next;
    }

    for (auto it = awaiting_start.begin(); it != awaiting_start.end();) {
      const serve::JobStatus status = engine.status(ids[*it]);
      if (status.state != serve::JobState::kQueued || status.slots_done > 0) {
        out.first_quantum_ms.push_back((elapsed() - due_s[*it]) * 1e3);
        it = awaiting_start.erase(it);
      } else {
        ++it;
      }
    }

    const std::uint64_t completed = engine.stats().completed;
    if (completed != seen_completed) {
      seen_completed = completed;
      const double now = elapsed();
      for (auto it = pending.begin(); it != pending.end();) {
        std::optional<JobResult> result;
        bool failed = false;
        try {
          result = engine.try_result(ids[*it]);
        } catch (const std::runtime_error&) {
          failed = true;
        }
        if (failed || result) {
          if (failed) {
            ++out.failed;
          } else {
            out.latency_ms.push_back((now - due_s[*it]) * 1e3);
            out.results[*it] = std::move(result);
          }
          last_done = now;
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }

    if (next == n && elapsed() > last_due + drain_limit_s) break;
    double wait_s = 0.0005;
    if (next < n) {
      wait_s = std::min(wait_s, std::max(0.0, due_s[next] - elapsed()));
    }
    if (wait_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
    }
  }
  out.unfinished = pending.size();
  out.wall_s = last_done - (due_s.empty() ? 0.0 : due_s.front());
  out.drain_s = last_done - last_due;
  return out;
}

/// Every result the engine returned for a sampled job must equal a direct
/// TenantRunner run of the same spec.
void check_against_direct(const std::vector<JobSpec>& specs,
                          const StageRun& run, std::size_t samples,
                          WorkloadResult& out) {
  for (std::size_t k = 0; k < samples && k < specs.size(); ++k) {
    const std::size_t i = k * specs.size() / samples;
    if (!run.results[i]) continue;  // counted as failed/unfinished already
    auto runner = serve::TenantRunner::create(specs[i]);
    runner->run(specs[i].slots);
    const JobResult direct = runner->result();
    out.check(direct.reward_crc == run.results[i]->reward_crc &&
                  direct.state_crc == run.results[i]->state_crc,
              "job " + std::to_string(i) +
                  " differs from a direct TenantRunner run");
  }
}

/// Per-operation costs on a fixed sample of the workload's specs, replayed
/// outside the engine: create, each quantum, one spool save + load after the
/// first quantum, and result().
void replay_tenant_ops(const std::vector<JobSpec>& specs, const StageRun& run,
                       const std::string& spool_dir, Tracer& tracer,
                       WorkloadResult& out) {
  std::filesystem::create_directories(spool_dir);
  const std::string path = spool_dir + "/replay.ctjs";
  for (std::size_t k = 0; k < kReplaySamples && k < specs.size(); ++k) {
    const std::size_t i = k * specs.size() / kReplaySamples;
    const JobSpec& spec = specs[i];
    const auto labels = std::find_if(
        std::begin(kLabels), std::end(kLabels),
        [&](const SchemeLabels& l) { return spec.scheme == l.scheme; });
    const char* run_label = labels->run;
    const char* result_label = labels->result;

    const std::int64_t root = tracer.begin("serve.replay", i);
    std::unique_ptr<serve::TenantRunner> runner;
    tracer.timed("serve.tenant_create", i, root,
                 [&] { runner = serve::TenantRunner::create(spec); });
    bool spooled = false;
    while (!runner->done()) {
      tracer.timed(run_label, i, root, [&] { runner->run(kQuantum); });
      if (!spooled && !runner->done()) {
        tracer.timed("io.spool_save", i, root, [&] { runner->save(path); });
        tracer.timed("io.spool_load", i, root,
                     [&] { runner = serve::TenantRunner::load(path, spec); });
        spooled = true;
      }
    }
    JobResult result;
    tracer.timed(result_label, i, root, [&] { result = runner->result(); });
    tracer.end(root);
    if (run.results[i]) {
      out.check(result.reward_crc == run.results[i]->reward_crc &&
                    result.state_crc == run.results[i]->state_crc,
                "replayed job " + std::to_string(i) +
                    " differs from the engine");
    }
  }
  std::filesystem::remove(path);
}

/// Layer metrics of a traced stage: submit cost, generator lateness,
/// first-quantum wait, engine counters, per-op costs and the share of worker
/// time those per-op costs do not explain (scheduling, locking, idling).
void serve_layers(const std::vector<JobSpec>& specs, const StageRun& traced,
                  const serve::EngineStats& stats, double untraced_wall_s,
                  Tracer& tracer, WorkloadResult& out) {
  const std::vector<double> submit_us = tracer.durations_us("serve.submit");
  out.layer("serve.submit.us_p50", submit_us.empty() ? 0.0 : median(submit_us));
  out.layer("serve.submit.us_p90",
            benchstats::supported_percentile(submit_us, 90.0).value_or(0.0));
  out.layer("gen.late_ms_max", traced.late_ms_max);
  out.layer("serve.first_quantum_wait_ms_p50",
            traced.first_quantum_ms.empty() ? 0.0
                                            : median(traced.first_quantum_ms));
  out.layer("serve.evictions", static_cast<double>(stats.evictions));
  out.layer("serve.revivals", static_cast<double>(stats.revivals));

  std::map<std::string, std::uint64_t> jobs;
  std::map<std::string, std::uint64_t> quanta;
  std::uint64_t quanta_total = 0;
  for (const JobSpec& spec : specs) {
    ++jobs[spec.scheme];
    quanta[spec.scheme] += quanta_of(spec);
    quanta_total += quanta_of(spec);
  }
  out.layer("serve.quanta", static_cast<double>(quanta_total));

  // Worker time the replayed per-op costs account for: count × mean cost
  // (means, not p50s, because a DQN tenant's quanta are bimodal: the first
  // only fills replay, the second learns).
  const auto mean_ms = [&](const char* name) {
    const std::size_t n = tracer.durations_us(name).size();
    return n == 0 ? 0.0
                  : span_total_us(tracer, name) / static_cast<double>(n) * 1e-3;
  };
  double explained_ms =
      static_cast<double>(specs.size()) * mean_ms("serve.tenant_create") +
      static_cast<double>(stats.evictions) * mean_ms("io.spool_save") +
      static_cast<double>(stats.revivals) * mean_ms("io.spool_load");
  out.layer("serve.tenant_create.us_p50",
            span_p50(tracer, "serve.tenant_create"));
  for (const SchemeLabels& l : kLabels) {
    out.layer("serve.tenant_run.ms_p50." + std::string(l.scheme),
              span_p50(tracer, l.run, 1e-3));
    out.layer("serve.result.ms_p50." + std::string(l.scheme),
              span_p50(tracer, l.result, 1e-3));
    explained_ms += static_cast<double>(quanta[l.scheme]) * mean_ms(l.run) +
                    static_cast<double>(jobs[l.scheme]) * mean_ms(l.result);
  }
  out.layer("io.spool_save.ms_p50", span_p50(tracer, "io.spool_save", 1e-3));
  out.layer("io.spool_load.ms_p50", span_p50(tracer, "io.spool_load", 1e-3));
  out.layer("serve.sched_residual_share",
            1.0 - explained_ms / (static_cast<double>(kWorkers) *
                                  traced.wall_s * 1e3));
  out.layer("trace_overhead_share", traced.wall_s / untraced_wall_s - 1.0);
}

/// The traced pass: the stage again with spans on a fresh engine, then the
/// per-op replay and the layer metrics.
void traced_pass(const serve::ServeConfig& config,
                 const std::vector<JobSpec>& specs,
                 const std::vector<double>& due_s, double drain_limit_s,
                 const StageRun& untraced, Tracer& tracer,
                 WorkloadResult& out) {
  StageRun traced;
  serve::EngineStats stats;
  {
    serve::ServeEngine engine(config);
    traced = run_stage(engine, specs, due_s, drain_limit_s, tracer);
    stats = engine.stats();
  }
  out.check(traced.failed + traced.unfinished == 0,
            "traced jobs failed or missed their drain deadline");
  replay_tenant_ops(specs, untraced, config.spool_dir, tracer, out);
  serve_layers(specs, traced, stats, untraced.wall_s, tracer, out);
}

/// Set-up: start an engine, run a small warm-up batch to completion and
/// shut it down.
void warm_up(const serve::ServeConfig& config,
             const std::vector<JobSpec>& specs) {
  serve::ServeEngine engine(config);
  for (const JobSpec& spec : specs) engine.submit(spec);
  engine.wait_all();
}

void count_jobs(const StageRun& run, WorkloadResult& out) {
  out.attempted += run.results.size();
  out.failed += run.failed + run.unfinished;
}

}  // namespace

WorkloadResult run_serve_sweep(const Options& options, Tracer& tracer) {
  WorkloadResult out;
  out.workers = kWorkers;
  // A closed batch sized to take about --seconds today (~100 tenants/s on 3
  // workers), far above the 64-runner residency cap so most tenants are
  // spooled out after their first quantum and revived for their second.
  const std::size_t tenants =
      options.smoke ? 24 : static_cast<std::size_t>(100 * options.seconds);
  const std::size_t max_resident = options.smoke ? 8 : 64;
  const std::string spool = options.scratch_dir + "/sweep";
  std::vector<JobSpec> specs;
  for (std::size_t i = 0; i < tenants; ++i) {
    specs.push_back(sweep_spec(options.seed * 100000 + i));
  }
  const std::vector<double> due(tenants, 0.0);
  Tracer off(false);

  // Set-up: start an engine and push a small warm-up batch through it.
  std::vector<JobSpec> warm;
  for (std::size_t i = 0; i < 6; ++i) {
    warm.push_back(sweep_spec(options.seed + 7777 + i));
  }
  out.setup_s = median_setup_seconds(options.smoke ? 1 : 5, [&] {
    warm_up(engine_config(max_resident, spool), warm);
  });

  StageRun run;
  {
    serve::ServeEngine engine(engine_config(max_resident, spool));
    run = run_stage(engine, specs, due, kBatchDrainLimitS, off);
  }
  count_jobs(run, out);
  out.check(run.failed + run.unfinished == 0,
            "serve_sweep jobs failed or unfinished");
  if (!run.latency_ms.empty()) {
    out.throughput_per_s =
        static_cast<double>(run.latency_ms.size()) / run.wall_s;
    fill_latency(out, run.latency_ms);
  }
  check_against_direct(specs, run, kCrcSamples, out);
  out.details["tenants"] = JsonValue(tenants);
  out.details["max_resident"] = JsonValue(max_resident);

  if (tracer.enabled()) {
    traced_pass(engine_config(max_resident, spool), specs, due,
                kBatchDrainLimitS, run, tracer, out);
  }
  std::filesystem::remove_all(spool);
  return out;
}

WorkloadResult run_serve_stream(const Options& options, Tracer& tracer) {
  WorkloadResult out;
  out.workers = kWorkers;
  // Open loop: Poisson arrivals at 30 jobs/s for --seconds, all runners
  // resident (no spooling). Two jobs in three are QL, whose result() holds
  // the engine mutex for ~15 ms, so p50 sits inside the QL mode instead of
  // on the edge between fast and slow jobs, and the mutex stays ~30% busy.
  // Then saturation: one backlog of the same mix, small enough to stay
  // resident; its drain rate is the sustainable throughput.
  const double rate = 30.0;
  const double open_s = options.smoke ? 0.5 : options.seconds;
  const std::size_t backlog = options.smoke ? 30 : 160;
  const std::string spool = options.scratch_dir + "/stream";
  const std::vector<double> due =
      benchstats::poisson_schedule(options.seed, rate, open_s);
  std::vector<JobSpec> specs;
  for (std::size_t i = 0; i < due.size(); ++i) {
    specs.push_back(stream_spec(options.seed * 100000 + i, i));
  }
  std::vector<JobSpec> batch;
  for (std::size_t i = 0; i < backlog; ++i) {
    batch.push_back(stream_spec(options.seed * 100000 + 50000 + i, i));
  }
  Tracer off(false);

  std::vector<JobSpec> warm;
  for (std::size_t i = 0; i < 15; ++i) {
    warm.push_back(stream_spec(options.seed + 7777 + i, i));
  }
  out.setup_s = median_setup_seconds(options.smoke ? 1 : 5, [&] {
    warm_up(engine_config(256, spool), warm);
  });

  StageRun open;
  StageRun saturated;
  {
    serve::ServeEngine engine(engine_config(256, spool));
    open = run_stage(engine, specs, due, benchstats::kStageDrainLimitS, off);
    saturated = run_stage(engine, batch, std::vector<double>(backlog, 0.0),
                          kBatchDrainLimitS, off);
  }
  count_jobs(open, out);
  count_jobs(saturated, out);
  out.check(open.failed + open.unfinished == 0,
            "open-loop jobs failed or missed the 2 s drain deadline");
  out.check(saturated.failed + saturated.unfinished == 0,
            "saturation jobs failed");
  if (!open.latency_ms.empty()) fill_latency(out, open.latency_ms);
  out.throughput_per_s = static_cast<double>(backlog) / saturated.wall_s;
  check_against_direct(specs, open, kCrcSamples, out);
  out.details["open_loop_jobs"] = JsonValue(specs.size());
  out.details["open_loop_rate_per_s"] = JsonValue(rate);
  out.details["open_loop_stage_pass"] = JsonValue(benchstats::stage_passes(
      open.latency_ms, open.unfinished + open.failed, open.drain_s));
  out.details["gen_late_ms_max"] = JsonValue(open.late_ms_max);
  out.details["saturation_jobs"] = JsonValue(backlog);

  if (tracer.enabled()) {
    traced_pass(engine_config(256, spool), specs, due,
                benchstats::kStageDrainLimitS, open, tracer, out);
  }
  std::filesystem::remove_all(spool);
  return out;
}

}  // namespace ctj::ctjbench
