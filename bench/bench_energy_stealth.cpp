// Extension benches grounded in the paper's discussion sections:
//  * energy vs the transmit-power range (Sec. IV.C.2's closing paragraph:
//    shifting L^T_p up lowers FH adoption and can save energy per delivered
//    slot) — the DQN is retrained per point and its policy is metered by
//    the energy model; the five points fan out across CTJ_BENCH_THREADS
//    cores;
//  * stealthiness comparison of the three jamming-signal types
//    (Sec. II.B): how often the victim can *attribute* its losses to a
//    jammer, per signal type (sequential: the three detectability runs
//    share one RNG stream by design).
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/energy.hpp"
#include "core/trainer.hpp"
#include "jammer/stealth.hpp"

using namespace ctj;
using namespace ctj::bench;
using namespace ctj::core;

namespace {

struct EnergyPoint {
  MetricsReport metrics;
  EnergyReport energy;
};

EnergyPoint run_energy_point(double lp_lower) {
  auto env_config = env_with_lp_lower(lp_lower, JammerPowerMode::kRandomPower);
  env_config.seed = 7;

  DqnScheme::Config scheme_config;
  scheme_config.num_channels = env_config.num_channels;
  scheme_config.num_power_levels = env_config.num_power_levels();
  scheme_config.history = 4;
  scheme_config.hidden = {32, 32};
  scheme_config.epsilon_decay_steps = train_slots() / 4;
  scheme_config.seed = 507;
  DqnScheme scheme(scheme_config);

  CompetitionEnvironment train_env(env_config);
  TrainerConfig trainer;
  trainer.max_slots = train_slots();
  trainer.checkpoint =
      checkpoint_options("energy_lp" + std::to_string(static_cast<int>(lp_lower)));
  train(scheme, train_env, trainer);
  scheme.set_training(false);
  scheme.reset();

  env_config.seed = 1007;
  CompetitionEnvironment env(env_config);
  MetricsAccumulator metrics;
  EnergyAccumulator energy;
  const double slot_s = 3.0;
  for (std::size_t slot = 0; slot < eval_slots(); ++slot) {
    const auto [d, step] = play_slot(scheme, env);
    metrics.record(step, d.power_index);
    energy.record_slot(env_config.tx_levels[d.power_index], slot_s,
                       step.hopped);
  }
  return {metrics.report(), energy.report()};
}

}  // namespace

int main() {
  std::cout << "Energy & stealth extension benches\n"
            << "threads: " << bench_threads() << "\n";
  BenchReport report("energy_stealth");

  {
    print_header(
        "energy vs lower bound of L^T_p (DQN, random-power jammer)",
        "Sec. IV.C.2: raising the power range trades FH (hop energy) for PC; "
        "energy per *successful* slot is the figure of merit");
    const double lowers[] = {6.0, 8.0, 10.0, 12.0, 14.0};
    const auto points = parallel_map(
        5, [&](std::size_t i) { return run_energy_point(lowers[i]); },
        bench_threads());
    TextTable table({"L_p lower", "ST (%)", "AH (%)", "AP (%)", "mean mW",
                     "mJ/success", "battery (h)"});
    JsonValue rows = JsonValue::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& point = points[i];
      const double successes =
          point.metrics.st * static_cast<double>(point.metrics.slots);
      const double mj_per_success =
          successes > 0 ? point.energy.total_mj / successes : 0.0;
      table.add_row({lowers[i], 100 * point.metrics.st,
                     100 * point.metrics.ah, 100 * point.metrics.ap,
                     point.energy.mean_mw, mj_per_success,
                     point.energy.battery_life_hours});
      JsonValue row = JsonValue::object();
      row["lp_lower"] = lowers[i];
      row["metrics"] = metrics_json(point.metrics);
      row["mean_mw"] = point.energy.mean_mw;
      row["mj_per_success"] = mj_per_success;
      row["battery_life_hours"] = point.energy.battery_life_hours;
      rows.push_back(std::move(row));
      report.add_slots(train_slots() + eval_slots());
    }
    table.print(std::cout);
    report.add_sweep("energy_vs_lp_lower", std::move(rows));
  }

  {
    print_header("stealthiness by jamming-signal type (Sec. II.B)",
                 "EmuBee: effective yet unattributable; ZigBee: effective "
                 "but loggable frames; WiFi: invisible to ZigBee monitors "
                 "but also weak");
    Rng rng(42);
    TextTable table({"signal", "P(energy det.)", "P(frame det.)",
                     "P(error-rate det.)", "P(attributable)"});
    JsonValue rows = JsonValue::array();
    for (auto type : {channel::JammingSignalType::kEmuBee,
                      channel::JammingSignalType::kZigbee,
                      channel::JammingSignalType::kWifi}) {
      const auto r = jammer::simulate_detectability(type, 50000, rng);
      table.add_row({channel::to_string(type), TextTable::fmt(r.p_energy, 3),
                     TextTable::fmt(r.p_frame, 3),
                     TextTable::fmt(r.p_error_rate, 3),
                     TextTable::fmt(r.p_attributable, 3)});
      JsonValue row = JsonValue::object();
      row["signal"] = channel::to_string(type);
      row["p_energy"] = r.p_energy;
      row["p_frame"] = r.p_frame;
      row["p_error_rate"] = r.p_error_rate;
      row["p_attributable"] = r.p_attributable;
      rows.push_back(std::move(row));
      report.add_slots(50000);
    }
    table.print(std::cout);
    report.add_sweep("stealth_by_signal_type", std::move(rows));
  }
  return 0;
}
