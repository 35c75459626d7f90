// Adversary-zoo scenario matrix: defender scheme × jammer archetype ×
// network size.
//
// The figure benches evaluate against the paper's sweeping jammer only; this
// bench crosses every anti-jamming scheme (PSV FH, Rand FH, tabular QL FH,
// RL FH) with every registered behavioural archetype (sweep, adaptive,
// reactive, duty_cycle, colluding) at K ∈ {8, 16, 32} ZigBee channels
// (m = 4), all through the behavioural environment mode — each slot's
// outcome comes from the archetype's live sense/emit decisions, not the
// closed-form kernel. The learning schemes train a fresh agent per cell
// against the same archetype they are evaluated on.
//
// Cells are embarrassingly parallel (every cell derives all of its state
// from its index alone), so the matrix fans out over bench_threads()
// workers and the emitted rows are bit-identical to a sequential run.
// Output: BENCH_scenarios.json with one "matrix" sweep row per cell.
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "arena/learned_jammer.hpp"
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "core/passive_fh.hpp"
#include "core/qlearning_scheme.hpp"
#include "core/random_fh.hpp"
#include "jammer/registry.hpp"

using namespace ctj;
using namespace ctj::bench;
using namespace ctj::core;

namespace {

const std::vector<std::string> kSchemes = {"PSV FH", "Rand FH", "QL FH",
                                           "RL FH (DQN)"};
const std::vector<std::string> kArchetypes = {"sweep",      "adaptive",
                                              "reactive",   "duty_cycle",
                                              "colluding",  "learned"};
const std::vector<int> kNetworkSizes = {8, 16, 32};

struct Cell {
  std::string scheme;
  std::string archetype;
  int num_channels = 0;
  MetricsReport metrics;
  std::size_t slots_simulated = 0;  // train + eval
};

EnvironmentConfig cell_env(const std::string& archetype, int num_channels,
                           std::uint64_t seed) {
  EnvironmentConfig config = EnvironmentConfig::defaults();
  config.num_channels = num_channels;
  config.mode = JammerPowerMode::kMaxPower;
  config.seed = seed;
  config.jammer = jammer::JammerSpec::defaults(archetype);
  return config;
}

MetricsReport run_ql_cell(const EnvironmentConfig& env_config,
                          std::uint64_t seed) {
  QLearningScheme::Config config;
  config.num_channels = env_config.num_channels;
  config.num_power_levels = env_config.num_power_levels();
  config.history = 4;
  config.epsilon_decay_steps = train_slots() / 4;
  config.seed = seed + 500;
  QLearningScheme ql(config);

  CompetitionEnvironment env(env_config);
  for (std::size_t slot = 0; slot < train_slots(); ++slot) {
    play_slot(ql, env);
  }
  ql.set_training(false);
  ql.reset();

  EnvironmentConfig eval_config = env_config;
  eval_config.seed = seed + 1000;
  CompetitionEnvironment eval_env(eval_config);
  return evaluate(ql, eval_env, eval_slots());
}

Cell run_cell(std::size_t index) {
  const std::size_t num_arch = kArchetypes.size();
  const std::size_t num_sizes = kNetworkSizes.size();
  const std::size_t per_scheme = num_arch * num_sizes;

  Cell cell;
  cell.scheme = kSchemes[index / per_scheme];
  cell.archetype = kArchetypes[(index % per_scheme) / num_sizes];
  cell.num_channels = kNetworkSizes[index % num_sizes];

  const std::uint64_t seed = 901 + 13 * static_cast<std::uint64_t>(index);
  const EnvironmentConfig env_config =
      cell_env(cell.archetype, cell.num_channels, seed);

  if (cell.scheme == "PSV FH") {
    PassiveFhScheme::Config config;
    config.num_channels = env_config.num_channels;
    config.num_power_levels = env_config.num_power_levels();
    PassiveFhScheme scheme(config);
    CompetitionEnvironment env(env_config);
    cell.metrics = evaluate(scheme, env, eval_slots());
    cell.slots_simulated = eval_slots();
  } else if (cell.scheme == "Rand FH") {
    RandomFhScheme::Config config;
    config.num_channels = env_config.num_channels;
    config.num_power_levels = env_config.num_power_levels();
    config.seed = seed + 500;
    RandomFhScheme scheme(config);
    CompetitionEnvironment env(env_config);
    cell.metrics = evaluate(scheme, env, eval_slots());
    cell.slots_simulated = eval_slots();
  } else if (cell.scheme == "QL FH") {
    cell.metrics = run_ql_cell(env_config, seed);
    cell.slots_simulated = train_slots() + eval_slots();
  } else {
    cell.metrics = run_rl_point(env_config, seed, "");
    cell.slots_simulated = train_slots() + eval_slots();
  }
  return cell;
}

}  // namespace

int main() {
  // The "learned" archetype lives in ctj_arena, not the built-in zoo.
  arena::ensure_registered();
  std::cout << "Adversary-zoo scenario matrix: scheme x archetype x network "
               "size (behavioural environment mode, m = 4)\n";
  BenchReport report("scenarios");

  const std::size_t num_cells =
      kSchemes.size() * kArchetypes.size() * kNetworkSizes.size();
  std::cout << num_cells << " cells, " << train_slots()
            << " train / " << eval_slots() << " eval slots per cell, "
            << bench_threads() << " threads\n\n";

  const auto cells =
      parallel_map(num_cells, [](std::size_t i) { return run_cell(i); },
                   bench_threads());

  JsonValue rows = JsonValue::array();
  for (const std::string& archetype : kArchetypes) {
    TextTable table({"scheme", "K", "ST (%)", "mean reward"});
    for (const Cell& cell : cells) {
      if (cell.archetype != archetype) continue;
      table.add_row({cell.scheme, std::to_string(cell.num_channels),
                     TextTable::fmt(100.0 * cell.metrics.st, 1),
                     TextTable::fmt(cell.metrics.mean_reward, 1)});
      JsonValue row = metrics_json(cell.metrics);
      row["scheme"] = cell.scheme;
      row["archetype"] = cell.archetype;
      row["num_channels"] = cell.num_channels;
      rows.push_back(std::move(row));
      report.add_slots(cell.slots_simulated);
    }
    std::cout << "=== archetype: " << archetype << " ===\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  report.add_sweep("matrix", std::move(rows));
  report.set_metric("cells", JsonValue(num_cells));
  report.write();
  return 0;
}
