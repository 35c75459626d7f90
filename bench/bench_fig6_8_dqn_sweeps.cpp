// Figs. 6–8 — the DQN anti-jamming scheme against (a) L_J, (b) the jammer's
// sweep cycle, (c) L_H and (d) the lower bound of the transmit power range,
// under the max-power and random-power jammer modes. Each (x, mode) point
// trains one fresh DQN and evaluates 20 000 slots; the three figures read
// different Table-I metrics of the same runs:
//   Fig. 6 — success rate of transmission (ST);
//   Fig. 7 — adoption rates of frequency hopping (AH) and power control (AP);
//   Fig. 8 — success rates of frequency hopping (SH) and power control (SP).
// Points fan out across CTJ_BENCH_THREADS cores.
#include <initializer_list>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

using namespace ctj;
using namespace ctj::bench;

namespace {

struct Axis {
  const char* sweep;   // record sweep name
  const char* xlabel;  // table x column
  std::vector<double> xs;
  core::EnvironmentConfig (*make_env)(double, JammerPowerMode);
  const char* fig6_title;
  const char* fig6_note;
  const char* fig7_title;
  const char* fig7_note;
  const char* fig8_title;
  const char* fig8_note;
};

using Metric = double core::MetricsReport::*;

// One figure's table: x, then each metric in percent under both modes.
void print_table(const std::string& title, const std::string& note,
                 std::vector<std::string> columns,
                 const std::vector<ModeSweepPoint>& points,
                 std::initializer_list<Metric> metrics) {
  print_header(title, note);
  TextTable table(std::move(columns));
  for (const auto& p : points) {
    std::vector<double> row{p.x};
    for (const Metric metric : metrics) {
      row.push_back(100.0 * (p.max_mode.*metric));
      row.push_back(100.0 * (p.rand_mode.*metric));
    }
    table.add_row(row);
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Figs. 6-8 reproduction: ST, AH/AP and SH/SP of one DQN per "
               "(x, jammer mode)\n"
            << "train slots/point: " << train_slots()
            << ", eval slots/point: " << eval_slots()
            << ", threads: " << bench_threads() << "\n";
  BenchReport report("fig6_8_dqn_sweeps");

  const Axis axes[] = {
      {"vs_lj", "L_J", lj_sweep(), env_with_lj,
       "Fig. 6(a): ST vs L_J",
       "ST ~0 for L_J<=15, rising to ~78% for L_J>50; random mode rises "
       "earlier than max mode in 15<L_J<=50",
       "Fig. 7(a): AH vs L_J / Fig. 7(b): AP vs L_J",
       "AH ~0 until L_J~35, then rises toward ~50% | AP low in max mode (PC "
       "useless against max power), high in random mode",
       "Fig. 8(a)/(b): SH and SP vs L_J",
       "SH rises rapidly for 35<L_J<55 then tapers; SP differs between the "
       "modes for 15<L_J<55 (PC only works in the random mode)"},
      {"vs_cycle", "cycle", sweep_cycle_sweep(), env_with_cycle,
       "Fig. 6(b): ST vs sweep cycle",
       "ST increases with the sweep cycle (~70% at 4 to ~90% at 15)",
       "Fig. 7(c): AH vs sweep cycle / Fig. 7(d): AP vs sweep cycle",
       "AH decreases with the cycle (less jamming pressure) | AP decreases "
       "with the cycle; rand mode usually above max mode",
       "Fig. 8(c)/(d): SH and SP vs sweep cycle",
       "both decrease with the cycle; FH dominant (77.8%..20.6%), PC low "
       "(19.5%..1.3%)"},
      {"vs_lh", "L_H", lh_sweep(), env_with_lh,
       "Fig. 6(c): ST vs L_H",
       "ST decreases with L_H; random mode drops sharply past L_H>85 while "
       "max mode keeps hopping",
       "Fig. 7(e): AH vs L_H / Fig. 7(f): AP vs L_H",
       "AH decreases with L_H; modes diverge past L_H>85 | AP picks up the "
       "slack in random mode when FH becomes expensive",
       "Fig. 8(e)/(f): SH and SP vs L_H",
       "modes diverge past L_H>85: PC replaces FH in the random mode, FH "
       "irreplaceable in the max mode"},
      {"vs_lp_lower", "L_p lower", lp_lower_sweep(), env_with_lp_lower,
       "Fig. 6(d): ST vs lower bound of L^T_p",
       "slow rise for 6-9, ST ~100% once the bound reaches 11 (tx power then "
       "always beats the jammer)",
       "Fig. 7(g): AH vs L_p lower bound / Fig. 7(h): AP vs L_p lower bound",
       "AH falls once power suffices (inflection at 11) | AP rises with the "
       "power budget",
       "Fig. 8(g)/(h): SH and SP vs L_p lower bound",
       "opposite trends: PC replaces FH as the power budget grows"},
  };

  using M = core::MetricsReport;
  for (const Axis& axis : axes) {
    const auto points = run_mode_sweep(axis.xs, axis.make_env);
    print_table(axis.fig6_title, axis.fig6_note,
                {axis.xlabel, "ST max-pwr (%)", "ST rand-pwr (%)"}, points,
                {&M::st});
    print_table(axis.fig7_title, axis.fig7_note,
                {axis.xlabel, "AH max (%)", "AH rand (%)", "AP max (%)",
                 "AP rand (%)"},
                points, {&M::ah, &M::ap});
    print_table(axis.fig8_title, axis.fig8_note,
                {axis.xlabel, "SH max (%)", "SH rand (%)", "SP max (%)",
                 "SP rand (%)"},
                points, {&M::sh, &M::sp});

    JsonValue rows = JsonValue::array();
    for (const auto& p : points) {
      JsonValue row = JsonValue::object();
      row["x"] = p.x;
      row["max_power"] = metrics_json(p.max_mode);
      row["random_power"] = metrics_json(p.rand_mode);
      rows.push_back(std::move(row));
    }
    report.add_sweep(axis.sweep, std::move(rows));
    report.add_slots(points.size() * 2 * (train_slots() + eval_slots()));
  }
  return 0;
}
