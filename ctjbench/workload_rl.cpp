// The `train` and `eval` workloads: the DQN learner and the frozen-policy
// inference path, each driven through the public core API a user calls
// (core::train_batched, core::evaluate_batched) and replayed step by step
// through the rl/core public functions for the traced pass.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/random_fh.hpp"
#include "core/trainer.hpp"
#include "core/vector_env.hpp"
#include "io/crc32.hpp"

namespace ctj::ctjbench {

namespace {

using benchstats::median;
using core::DqnScheme;
using core::EnvironmentConfig;

// The paper network (24 → 45 → 45 → 160, batch 32, one gradient step per
// transition) trained on 8 lockstep replicas against the closed-form kernel
// adversary; evaluation uses 16 replicas against the behavioural sweeper.
constexpr std::size_t kTrainReplicas = 8;
constexpr std::size_t kEvalReplicas = 16;
constexpr std::size_t kRewardWindow = 2000;  // TrainerConfig's default

DqnScheme::Config paper_scheme(std::uint64_t seed) {
  DqnScheme::Config config;
  config.seed = seed;
  return config;
}

EnvironmentConfig train_env(std::uint64_t seed) {
  EnvironmentConfig config = EnvironmentConfig::defaults();
  config.seed = seed;
  return config;
}

EnvironmentConfig eval_env(std::uint64_t seed) {
  EnvironmentConfig config = EnvironmentConfig::defaults();
  config.jammer = jammer::JammerSpec::defaults("sweep");
  config.seed = seed;
  return config;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

struct TrainOutcome {
  double final_mean_reward = 0.0;
  std::size_t gradient_steps = 0;
  double wall_s = 0.0;
};

/// One core::train_batched run; appends the wall time of every lockstep
/// iteration (one decision for all replicas, plus their learner steps).
TrainOutcome train_once(std::uint64_t seed, std::size_t slots,
                        std::vector<double>& step_ms) {
  DqnScheme scheme(paper_scheme(seed));
  core::TrainerConfig config;
  config.max_slots = slots;
  config.reward_window = kRewardWindow;
  Clock::time_point last = Clock::now();
  config.on_slot = [&](std::size_t slot, double) {
    if ((slot + 1) % kTrainReplicas != 0) return;
    const Clock::time_point now = Clock::now();
    step_ms.push_back(ms_between(last, now));
    last = now;
  };
  const core::TrainingStats stats =
      core::train_batched(scheme, train_env(seed), config, kTrainReplicas);
  return {stats.final_mean_reward, scheme.agent().gradient_steps(),
          stats.wall_seconds};
}

/// train_batched's loop rebuilt from the public rl/core calls, with a span
/// around each. It must reproduce train_once bit for bit.
TrainOutcome replay_train(std::uint64_t seed, std::size_t slots,
                          Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  const std::int64_t root = tracer.begin("train.run", seed);
  DqnScheme scheme(paper_scheme(seed));
  scheme.set_training(true);
  rl::DqnAgent& agent = scheme.agent();
  const DqnScheme::Config& sc = scheme.config();
  const std::size_t pl = sc.num_power_levels;
  const std::size_t replicas = kTrainReplicas;

  core::VectorEnv venv(train_env(seed), replicas);
  core::ObservationWindows windows(replicas, sc.history, sc.num_channels, pl);
  std::vector<std::size_t> actions(replicas);
  std::vector<int> channels(replicas);
  std::vector<std::size_t> powers(replicas);
  std::vector<std::vector<double>> pre_states(replicas);
  std::deque<double> window;
  double window_sum = 0.0;

  std::size_t trained = 0;
  while (trained < slots) {
    tracer.timed("rl.act_batch", seed, root,
                 [&] { agent.act_batch(windows.states(), actions); });
    for (std::size_t r = 0; r < replicas; ++r) {
      channels[r] = static_cast<int>(actions[r] / pl);
      powers[r] = actions[r] % pl;
      const auto row = windows.row(r);
      pre_states[r].assign(row.begin(), row.end());
    }
    tracer.timed("core.venv_step", seed, root,
                 [&] { venv.step(channels, powers); });
    for (std::size_t r = 0; r < replicas && trained < slots; ++r) {
      const bool success = venv.successes()[r] != 0;
      tracer.timed("core.windows_push", seed, root, [&] {
        windows.push(r, success, venv.channels()[r], powers[r]);
      });
      rl::Transition transition;
      transition.state = std::move(pre_states[r]);
      transition.action = actions[r];
      transition.reward = venv.rewards()[r];
      const auto next_row = windows.row(r);
      transition.next_state.assign(next_row.begin(), next_row.end());
      transition.done = false;
      const std::size_t steps_before = agent.gradient_steps();
      const std::int64_t span = tracer.begin("rl.observe", seed, root);
      agent.observe(std::move(transition));
      tracer.end(span);
      if (agent.gradient_steps() != steps_before) {
        tracer.rename(span, "rl.learn");
      }

      window.push_back(venv.rewards()[r]);
      window_sum += venv.rewards()[r];
      if (window.size() > kRewardWindow) {
        window_sum -= window.front();
        window.pop_front();
      }
      ++trained;
    }
  }
  tracer.end(root);
  return {window_sum / static_cast<double>(window.size()),
          agent.gradient_steps(), seconds_between(t0, Clock::now())};
}

/// evaluate_batched's loop rebuilt from the public rl/core calls. It must
/// reproduce evaluate_batched's MetricsReport exactly.
core::MetricsReport replay_eval(const DqnScheme& scheme,
                                const EnvironmentConfig& env_config,
                                std::size_t slots_per_replica,
                                std::uint64_t request, Tracer& tracer) {
  const std::int64_t root = tracer.begin("eval.run", request);
  const DqnScheme::Config& sc = scheme.config();
  const rl::DqnAgent& agent = scheme.agent();
  const std::size_t num_actions = agent.config().num_actions;
  const std::size_t pl = sc.num_power_levels;
  const std::size_t replicas = kEvalReplicas;

  core::VectorEnv venv(env_config, replicas);
  core::ObservationWindows windows(replicas, sc.history, sc.num_channels, pl);
  std::vector<std::size_t> actions(replicas);
  std::vector<int> channels(replicas);
  std::vector<std::size_t> powers(replicas);
  Rng explore_rng(env_config.seed ^ 0xD09ULL);  // evaluate_batched's stream
  const double eps = scheme.deploy_epsilon();

  core::MetricsAccumulator metrics;
  for (std::size_t slot = 0; slot < slots_per_replica; ++slot) {
    tracer.timed("rl.infer", request, root,
                 [&] { agent.act_greedy_batch(windows.states(), actions); });
    for (std::size_t r = 0; r < replicas; ++r) {
      if (eps > 0.0 && explore_rng.bernoulli(eps)) {
        actions[r] = explore_rng.index(num_actions);
      }
      channels[r] = static_cast<int>(actions[r] / pl);
      powers[r] = actions[r] % pl;
    }
    tracer.timed("core.venv_step", request, root,
                 [&] { venv.step(channels, powers); });
    for (std::size_t r = 0; r < replicas; ++r) {
      const bool success = venv.successes()[r] != 0;
      windows.push(r, success, venv.channels()[r], powers[r]);
      metrics.record(success, venv.hopped()[r] != 0, powers[r] > 0,
                     venv.rewards()[r]);
    }
  }
  tracer.end(root);
  return metrics.report();
}

bool same_report(const core::MetricsReport& a, const core::MetricsReport& b) {
  return a.st == b.st && a.ah == b.ah && a.sh == b.sh && a.ap == b.ap &&
         a.sp == b.sp && a.mean_reward == b.mean_reward && a.slots == b.slots;
}

}  // namespace

WorkloadResult run_train(const Options& options, Tracer& tracer) {
  WorkloadResult out;
  // A training run of 2 048 transitions: 256 replay warm-up inserts, then a
  // gradient step per transition.
  const std::size_t slots = options.smoke ? 512 : 2048;
  const int setups = options.smoke ? 1 : 5;

  // Set-up: build the paper network and run a short warm-up training, so
  // first-touch and frequency ramp-up stay out of the timed runs.
  std::vector<double> warm_steps;
  out.setup_s = median_setup_seconds(setups, [&] {
    train_once(options.seed ^ 0x5EEDULL, 512, warm_steps);
  });

  // Timed: back-to-back training runs, seeds seed, seed+1, ...
  const std::size_t min_runs = options.smoke ? 1 : 3;
  std::vector<double> step_ms;
  std::vector<double> rates;
  std::vector<TrainOutcome> runs;
  const Clock::time_point t0 = Clock::now();
  while (runs.size() < min_runs ||
         seconds_between(t0, Clock::now()) < options.seconds) {
    const TrainOutcome run =
        train_once(options.seed + runs.size(), slots, step_ms);
    rates.push_back(static_cast<double>(slots) / run.wall_s);
    runs.push_back(run);
  }
  out.throughput_per_s = median(rates);
  fill_latency(out, step_ms);
  out.attempted = runs.size() * slots;

  // The replay must reproduce each run bit for bit. An untraced run checks
  // the first; a traced run replays the first four with spans.
  const std::size_t replays =
      std::min<std::size_t>(options.trace ? 4 : 1, runs.size());
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < replays; ++i) {
    const TrainOutcome replay = replay_train(options.seed + i, slots, tracer);
    out.check(replay.final_mean_reward == runs[i].final_mean_reward &&
                  replay.gradient_steps == runs[i].gradient_steps,
              "train replay " + std::to_string(i) +
                  " differs from train_batched");
    untraced_s += runs[i].wall_s;
    traced_s += replay.wall_s;
  }

  JsonValue rewards = JsonValue::array();
  for (const TrainOutcome& run : runs) rewards.push_back(run.final_mean_reward);
  out.details["runs"] = JsonValue(runs.size());
  out.details["slots_per_run"] = JsonValue(slots);
  out.details["replicas"] = JsonValue(kTrainReplicas);
  out.details["final_mean_reward"] = std::move(rewards);
  JsonValue rate_list = JsonValue::array();
  for (double r : rates) rate_list.push_back(r);
  out.details["slots_per_s_by_run"] = std::move(rate_list);

  if (tracer.enabled()) {
    const double learn_us = span_total_us(tracer, "rl.learn");
    out.layer("rl.act_batch.us_p50", span_p50(tracer, "rl.act_batch"));
    out.layer("core.venv_step.us_p50", span_p50(tracer, "core.venv_step"));
    out.layer("core.windows_push.us_p50",
              span_p50(tracer, "core.windows_push"));
    out.layer("rl.observe.us_p50", span_p50(tracer, "rl.observe"));
    out.layer("rl.learn.calls",
              static_cast<double>(tracer.durations_us("rl.learn").size()));
    out.layer("rl.learn.us_p50", span_p50(tracer, "rl.learn"));
    out.layer("rl.learn.share", learn_us / (traced_s * 1e6));
    out.layer("trace_overhead_share", traced_s / untraced_s - 1.0);
  }
  return out;
}

WorkloadResult run_eval(const Options& options, Tracer& tracer) {
  WorkloadResult out;
  const std::size_t train_slots = options.smoke ? 4000 : 8000;
  // One evaluation request: 16 replicas × 2 000 slots of the frozen policy.
  const std::size_t slots_per_replica = options.smoke ? 100 : 2000;
  const int setups = options.smoke ? 1 : 3;

  // Set-up: train the policy under evaluation. Its seed is fixed: the
  // policy's behaviour sets the per-slot cost (eval throughput ranged
  // 1.10–1.45 M slots/s over ten policy seeds), so --seed varies only the
  // evaluation environments. Repeats also check that training is
  // deterministic.
  constexpr std::uint64_t kPolicySeed = 1;
  std::unique_ptr<DqnScheme> policy;
  std::vector<std::uint32_t> state_crcs;
  out.setup_s = median_setup_seconds(setups, [&] {
    policy = std::make_unique<DqnScheme>(paper_scheme(kPolicySeed));
    core::TrainerConfig config;
    config.max_slots = train_slots;
    core::train_batched(*policy, train_env(kPolicySeed), config,
                        kTrainReplicas);
    policy->set_training(false);
    io::ContainerWriter state;
    policy->save_state(state);
    state_crcs.push_back(io::crc32(state.to_bytes()));
  });
  out.check(std::all_of(
                state_crcs.begin(), state_crcs.end(),
                [&](std::uint32_t c) { return c == state_crcs.front(); }),
            "repeated set-up trained different policies from one seed");

  const std::size_t min_calls = options.smoke ? 2 : 20;
  std::vector<double> call_ms;
  std::vector<double> rates;
  std::vector<core::MetricsReport> reports;
  const Clock::time_point t0 = Clock::now();
  while (reports.size() < min_calls ||
         seconds_between(t0, Clock::now()) < options.seconds) {
    const Clock::time_point c0 = Clock::now();
    reports.push_back(core::evaluate_batched(
        *policy, eval_env(options.seed * 7919 + reports.size()),
        slots_per_replica, kEvalReplicas));
    const double s = seconds_between(c0, Clock::now());
    call_ms.push_back(s * 1e3);
    rates.push_back(
        static_cast<double>(slots_per_replica * kEvalReplicas) / s);
  }
  out.throughput_per_s = median(rates);
  fill_latency(out, call_ms);
  out.attempted = reports.size() * slots_per_replica * kEvalReplicas;

  // Traced replays cover a fixed sample of calls (the span file stays small).
  const std::size_t replays =
      std::min<std::size_t>(options.trace ? 10 : 1, reports.size());
  double untraced_s = 0.0;
  const Clock::time_point r0 = Clock::now();
  for (std::size_t i = 0; i < replays; ++i) {
    untraced_s += call_ms[i] * 1e-3;
    const core::MetricsReport replay =
        replay_eval(*policy, eval_env(options.seed * 7919 + i),
                    slots_per_replica, i, tracer);
    out.check(same_report(replay, reports[i]),
              "eval replay " + std::to_string(i) +
                  " differs from evaluate_batched");
  }
  const double traced_s = seconds_between(r0, Clock::now());

  // The trained policy must beat random hopping on the same environment.
  const EnvironmentConfig env = eval_env(options.seed * 7919);
  const std::size_t quality_slots = options.smoke ? 4000 : 16000;
  const core::MetricsReport learned = core::evaluate_batched(
      *policy, env, quality_slots / kEvalReplicas, kEvalReplicas);
  core::RandomFhScheme::Config random_config;
  random_config.seed = options.seed;
  core::RandomFhScheme random(random_config);
  core::CompetitionEnvironment random_env(env);
  const core::MetricsReport baseline =
      core::evaluate(random, random_env, quality_slots);
  out.check(learned.st > baseline.st,
            "trained policy success " + std::to_string(learned.st) +
                " does not beat random FH " + std::to_string(baseline.st));

  out.details["calls"] = JsonValue(reports.size());
  out.details["slots_per_call"] =
      JsonValue(slots_per_replica * kEvalReplicas);
  out.details["policy_success_rate"] = JsonValue(learned.st);
  out.details["random_fh_success_rate"] = JsonValue(baseline.st);

  if (tracer.enabled()) {
    out.layer("rl.infer.us_p50", span_p50(tracer, "rl.infer"));
    out.layer("rl.infer.share",
              span_total_us(tracer, "rl.infer") / (traced_s * 1e6));
    out.layer("core.venv_step.us_p50", span_p50(tracer, "core.venv_step"));
    out.layer("trace_overhead_share", traced_s / untraced_s - 1.0);
  }
  return out;
}

}  // namespace ctj::ctjbench
