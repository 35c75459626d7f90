// Ablations of the DQN design choices (beyond the paper's figures, but
// answering the design questions Sec. III.C raises): the observation history
// length I (the 3×I input layer), the hidden width of the two fully
// connected layers, and the deployed ε of the ε-greedy communication policy.
// Each point trains on the default max-power scenario and reports ST and the
// mean reward. The training-variant sections fan their points out across
// CTJ_BENCH_THREADS cores; the deployed-ε study trains one scheme and
// redeploys it sequentially (the scheme object is mutated between runs).
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/field.hpp"
#include "core/qlearning_scheme.hpp"
#include "core/trainer.hpp"
#include "core/experiment.hpp"

using namespace ctj;
using namespace ctj::bench;
using namespace ctj::core;

namespace {

MetricsReport run_variant(std::size_t history, std::vector<std::size_t> hidden,
                          double deploy_epsilon, std::uint64_t seed,
                          const std::string& ckpt_tag = "") {
  RlExperimentConfig config;
  config.env = EnvironmentConfig::defaults();
  config.env.mode = JammerPowerMode::kMaxPower;
  config.env.seed = seed;
  config.eval_seed = seed + 1000;
  config.scheme.history = history;
  config.scheme.hidden = std::move(hidden);
  config.scheme.learning_rate = 1.5e-3;
  config.scheme.epsilon_decay_steps = train_slots() / 4;
  config.scheme.deploy_epsilon = deploy_epsilon;
  config.scheme.seed = seed + 500;
  config.train_slots = train_slots();
  config.eval_slots = eval_slots();
  config.checkpoint = checkpoint_options(ckpt_tag);
  return run_rl_experiment(config).metrics;
}

}  // namespace

int main() {
  std::cout << "DQN design ablations (max-power jammer, paper defaults "
               "otherwise)\n"
            << "train slots/point: " << train_slots()
            << ", eval slots/point: " << eval_slots()
            << ", threads: " << bench_threads() << "\n";
  BenchReport report("ablation_dqn");

  {
    print_header("history length I (input layer = 3*I neurons)",
                 "the paper uses the previous I slots; too little history "
                 "hides the jammer's sweep phase");
    const std::size_t histories[] = {1, 2, 4, 8};
    const auto ms = parallel_map(
        4,
        [&](std::size_t i) {
          return run_variant(histories[i], {32, 32}, 0.05, 11,
                             "ablation_hist" + std::to_string(histories[i]));
        },
        bench_threads());
    TextTable table({"I", "ST (%)", "mean reward"});
    JsonValue rows = JsonValue::array();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      table.add_row({static_cast<double>(histories[i]), 100.0 * ms[i].st,
                     ms[i].mean_reward});
      JsonValue row = JsonValue::object();
      row["history"] = histories[i];
      row["metrics"] = metrics_json(ms[i]);
      rows.push_back(std::move(row));
    }
    table.print(std::cout);
    report.add_sweep("history_length", std::move(rows));
    report.add_slots(ms.size() * (train_slots() + eval_slots()));
  }

  {
    print_header("hidden width (two fully connected layers, Fig. 4)",
                 "the paper: two hidden layers suffice; width trades "
                 "capacity against on-device footprint");
    const std::size_t widths[] = {16, 32, 45, 64};
    const auto ms = parallel_map(
        4,
        [&](std::size_t i) {
          return run_variant(4, {widths[i], widths[i]}, 0.05, 22,
                             "ablation_width" + std::to_string(widths[i]));
        },
        bench_threads());
    TextTable table({"width", "ST (%)", "mean reward"});
    JsonValue rows = JsonValue::array();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      table.add_row({static_cast<double>(widths[i]), 100.0 * ms[i].st,
                     ms[i].mean_reward});
      JsonValue row = JsonValue::object();
      row["width"] = widths[i];
      row["metrics"] = metrics_json(ms[i]);
      rows.push_back(std::move(row));
    }
    table.print(std::cout);
    report.add_sweep("hidden_width", std::move(rows));
    report.add_slots(ms.size() * (train_slots() + eval_slots()));
  }

  {
    print_header("deployed epsilon of the eps-greedy communication policy",
                 "evaluated in the FIELD simulator, where the behavioural "
                 "sweeping jammer can track a deterministic channel "
                 "pattern: eps = 0 collapses, a little exploration "
                 "restores the escape behaviour, too much wastes slots");
    // Train once, redeploy with different epsilons. The scheme object is
    // mutated between deployments, so this section stays sequential.
    DqnScheme::Config scheme_config;
    scheme_config.history = 4;
    scheme_config.hidden = {32, 32};
    scheme_config.epsilon_decay_steps = train_slots() / 4;
    scheme_config.seed = 533;
    DqnScheme scheme(scheme_config);
    {
      auto env_config = EnvironmentConfig::defaults();
      env_config.mode = JammerPowerMode::kMaxPower;
      env_config.seed = 33;
      CompetitionEnvironment env(env_config);
      TrainerConfig trainer;
      trainer.max_slots = train_slots();
      trainer.checkpoint = checkpoint_options("ablation_deploy_eps");
      train(scheme, env, trainer);
      scheme.set_training(false);
      report.add_slots(train_slots());
    }
    TextTable table({"deploy eps", "field ST (%)", "goodput (pkts/slot)"});
    JsonValue rows = JsonValue::array();
    for (double eps : {0.0, 0.02, 0.05, 0.1, 0.2}) {
      scheme.set_deploy_epsilon(eps);
      scheme.reset();
      FieldConfig field = FieldConfig::defaults();
      field.network.num_peripherals = 4;
      field.network.slot_duration_s = 3.0;
      field.network.seed = 62;
      field.seed = 63;
      FieldExperiment experiment(field, scheme);
      const auto r = experiment.run(300);
      table.add_row({eps, 100.0 * r.metrics.st, r.goodput_packets_per_slot});
      JsonValue row = JsonValue::object();
      row["deploy_epsilon"] = eps;
      row["field_st"] = r.metrics.st;
      row["goodput_packets_per_slot"] = r.goodput_packets_per_slot;
      rows.push_back(std::move(row));
      report.add_slots(300);
    }
    table.print(std::cout);
    report.add_sweep("deploy_epsilon", std::move(rows));
  }

  {
    print_header("agent family: tabular Q-learning vs DQN vs Double DQN",
                 "Sec. III.C's motivation: the Q table over the 3*I "
                 "observation space converges far slower than the DQN for "
                 "the same slot budget");
    // Three independent trainings: run them as one parallel batch. Each item
    // builds all of its state from the index alone.
    struct FamilyResult {
      MetricsReport metrics;
      std::size_t table_size = 0;  // only for the tabular agent
    };
    const auto family = parallel_map(
        3,
        [&](std::size_t i) -> FamilyResult {
          if (i == 0) {
            auto env_config = EnvironmentConfig::defaults();
            env_config.mode = JammerPowerMode::kMaxPower;
            env_config.seed = 55;
            QLearningScheme::Config ql_config;
            ql_config.history = 4;
            ql_config.epsilon_decay_steps = train_slots() / 4;
            QLearningScheme ql(ql_config);
            CompetitionEnvironment env(env_config);
            for (std::size_t slot = 0; slot < train_slots(); ++slot) {
              play_slot(ql, env);
            }
            ql.set_training(false);
            env_config.seed = 56;
            CompetitionEnvironment eval_env(env_config);
            return {evaluate(ql, eval_env, eval_slots()),
                    ql.agent().table_size()};
          }
          if (i == 1) {
            return {run_variant(4, {32, 32}, 0.05, 55, "ablation_dqn"), 0};
          }
          RlExperimentConfig config;
          config.env = EnvironmentConfig::defaults();
          config.env.mode = JammerPowerMode::kMaxPower;
          config.env.seed = 55;
          config.eval_seed = 56;
          config.scheme.history = 4;
          config.scheme.hidden = {32, 32};
          config.scheme.epsilon_decay_steps = train_slots() / 4;
          config.scheme.double_dqn = true;
          config.scheme.seed = 555;
          config.train_slots = train_slots();
          config.eval_slots = eval_slots();
          config.checkpoint = checkpoint_options("ablation_double_dqn");
          return {run_rl_experiment(config).metrics, 0};
        },
        bench_threads());
    const char* const family_names[] = {"tabular Q-learning", "DQN (paper)",
                                        "Double DQN"};
    TextTable table({"agent", "ST (%)", "notes"});
    JsonValue rows = JsonValue::array();
    for (std::size_t i = 0; i < family.size(); ++i) {
      table.add_row({family_names[i],
                     TextTable::fmt(100 * family[i].metrics.st, 2),
                     i == 0 ? "table size " +
                                  std::to_string(family[i].table_size)
                            : "-"});
      JsonValue row = JsonValue::object();
      row["agent"] = family_names[i];
      row["metrics"] = metrics_json(family[i].metrics);
      if (i == 0) row["table_size"] = family[i].table_size;
      rows.push_back(std::move(row));
    }
    table.print(std::cout);
    report.add_sweep("agent_family", std::move(rows));
    report.add_slots(family.size() * (train_slots() + eval_slots()));
  }

  {
    print_header("target network update rule",
                 "the paper hard-copies the target every 250 gradient steps; "
                 "syncing every step removes the stale-target stabilizer, a "
                 "Polyak soft update (tau = 0.01) tracks continuously, and "
                 "Double DQN decouples action selection from evaluation on "
                 "top of it");
    struct TargetVariant {
      const char* name;
      std::size_t sync_interval;
      double tau;
      bool double_dqn;
    };
    const TargetVariant variants[] = {
        {"hard sync / 250 (paper)", 250, 0.0, false},
        {"hard sync / 1 (no frozen target)", 1, 0.0, false},
        {"soft tau = 0.01", 0, 0.01, false},
        {"double DQN + soft tau = 0.01", 0, 0.01, true},
    };
    const auto ms = parallel_map(
        4,
        [&](std::size_t i) {
          RlExperimentConfig config;
          config.env = EnvironmentConfig::defaults();
          config.env.mode = JammerPowerMode::kMaxPower;
          config.env.seed = 66;
          config.eval_seed = 67;
          config.scheme.history = 4;
          config.scheme.hidden = {32, 32};
          config.scheme.epsilon_decay_steps = train_slots() / 4;
          config.scheme.target_sync_interval = variants[i].sync_interval;
          config.scheme.target_tau = variants[i].tau;
          config.scheme.double_dqn = variants[i].double_dqn;
          config.scheme.seed = 660 + i;
          config.train_slots = train_slots();
          config.eval_slots = eval_slots();
          config.checkpoint =
              checkpoint_options("ablation_target" + std::to_string(i));
          return run_rl_experiment(config).metrics;
        },
        bench_threads());
    TextTable table({"update rule", "ST (%)", "mean reward"});
    JsonValue rows = JsonValue::array();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      table.add_row({variants[i].name, TextTable::fmt(100.0 * ms[i].st, 2),
                     TextTable::fmt(ms[i].mean_reward, 2)});
      JsonValue row = JsonValue::object();
      row["update_rule"] = variants[i].name;
      row["target_sync_interval"] = variants[i].sync_interval;
      row["target_tau"] = variants[i].tau;
      row["double_dqn"] = variants[i].double_dqn;
      row["metrics"] = metrics_json(ms[i]);
      rows.push_back(std::move(row));
    }
    table.print(std::cout);
    report.add_sweep("target_network", std::move(rows));
    report.add_slots(ms.size() * (train_slots() + eval_slots()));
  }

  {
    print_header("single vs two hidden layers",
                 "checks the paper's claim that 2 FC layers are sufficient");
    const std::pair<std::string, std::vector<std::size_t>> variants[] = {
        {"1 x 32", {32}},
        {"2 x 32", {32, 32}},
        {"3 x 32", {32, 32, 32}},
    };
    const auto ms = parallel_map(
        3,
        [&](std::size_t i) {
          return run_variant(4, variants[i].second, 0.05, 44,
                             "ablation_depth" + std::to_string(i + 1));
        },
        bench_threads());
    TextTable table({"architecture", "ST (%)", "mean reward"});
    JsonValue rows = JsonValue::array();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      table.add_row({variants[i].first, TextTable::fmt(100.0 * ms[i].st, 2),
                     TextTable::fmt(ms[i].mean_reward, 2)});
      JsonValue row = JsonValue::object();
      row["architecture"] = variants[i].first;
      row["metrics"] = metrics_json(ms[i]);
      rows.push_back(std::move(row));
    }
    table.print(std::cout);
    report.add_sweep("depth", std::move(rows));
    report.add_slots(ms.size() * (train_slots() + eval_slots()));
  }
  return 0;
}
