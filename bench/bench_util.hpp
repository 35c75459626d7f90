// Shared helpers for the figure-reproduction benches.
//
// Figs. 6–8 sweep the same four parameters (L_J, sweep cycle, L_H, and the
// lower bound of the transmit-power range) under the two jammer modes; each
// figure reads a different subset of the Table-I metrics from the same runs
// (bench_fig6_8_dqn_sweeps): train a fresh DQN on the configuration, freeze
// it, evaluate 20 000 slots.
//
// Sweep points are embarrassingly parallel (every point trains its own
// independently seeded DQN), so run_mode_sweep() fans them out over
// bench_threads() workers; results are returned in x order and are
// bit-identical to a sequential run regardless of the thread count.
//
// Every bench also writes a machine-readable BENCH_<name>.json next to its
// text output (see BenchReport).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/experiment.hpp"

namespace ctj::bench {

/// CTJ_BENCH_SCALE multiplier applied to the per-point slot budgets (e.g.
/// 0.1 for a smoke run); 1.0 when unset.
double bench_scale();

/// Worker threads for sweep fan-out: CTJ_BENCH_THREADS when set, otherwise
/// hardware_concurrency.
std::size_t bench_threads();

/// Evaluation slots per sweep point (the paper uses 20 000); scaled down by
/// the CTJ_BENCH_SCALE environment variable (e.g. 0.1 for a smoke run).
std::size_t eval_slots();

/// Training slots per sweep point.
std::size_t train_slots();

/// Training checkpoint options for a bench work item. When CTJ_CKPT_DIR is
/// set (and `tag` is non-empty), training checkpoints land in
/// <dir>/<tag>.ctjs every CTJ_CKPT_EVERY slots (default 5000) with resume
/// enabled, so a killed bench re-run picks up where it stopped instead of
/// retraining from scratch. A missing directory is created; one that
/// cannot be ends the bench with a message naming it. Returns nullopt
/// (checkpointing off) when the variable is unset.
std::optional<core::CheckpointOptions> checkpoint_options(
    const std::string& tag);

/// Run one sweep point: train + evaluate a DQN on the environment config.
/// A non-empty `ckpt_tag` opts the training phase into checkpoint_options().
core::MetricsReport run_rl_point(core::EnvironmentConfig env,
                                 std::uint64_t seed = 7,
                                 const std::string& ckpt_tag = "");

/// One x of a Figs. 6–8 sweep: the Table-I metrics under both jammer modes.
struct ModeSweepPoint {
  double x = 0.0;
  core::MetricsReport max_mode;
  core::MetricsReport rand_mode;
};

/// Train + evaluate a fresh DQN per (x, jammer mode) work item, fanned out
/// across bench_threads() cores.
std::vector<ModeSweepPoint> run_mode_sweep(
    const std::vector<double>& xs,
    core::EnvironmentConfig (*make_env)(double, JammerPowerMode),
    std::uint64_t seed = 7);

/// The four parameter sweeps of Figs. 6–8 (paper x-axes).
std::vector<double> lj_sweep();          // L_J: 10..100
std::vector<double> sweep_cycle_sweep(); // 2..16 time slots
std::vector<double> lh_sweep();          // L_H: 0..100
std::vector<double> lp_lower_sweep();    // lower bound of L^T_p: 6..14

/// Build the default environment with one parameter overridden.
core::EnvironmentConfig env_with_lj(double lj, JammerPowerMode mode);
core::EnvironmentConfig env_with_cycle(double cycle, JammerPowerMode mode);
core::EnvironmentConfig env_with_lh(double lh, JammerPowerMode mode);
core::EnvironmentConfig env_with_lp_lower(double lower, JammerPowerMode mode);

/// Print a section header in the bench output.
void print_header(const std::string& title, const std::string& paper_note);

/// The full Table-I metric set of one run as a JSON object.
JsonValue metrics_json(const core::MetricsReport& m);

/// Machine-readable record emitted by every bench binary.
///
/// On write() (or destruction) the report lands in BENCH_<name>.json under
/// CTJ_BENCH_JSON_DIR (default: the current directory) with the schema:
///
///   {
///     "schema_version": 1,
///     "bench": "<name>",            // e.g. "fig6_8_dqn_sweeps"
///     "git_rev": "<short rev>",     // of the build ("-dirty" when the tree
///                                   // had uncommitted changes), "unknown"
///                                   // outside git
///     "simd_level": "scalar"|"avx2"|"avx512",  // active kernel set
///     "threads": N,                 // bench_threads() at run time
///     "scale": S,                   // CTJ_BENCH_SCALE
///     "train_slots_per_point": …, "eval_slots_per_point": …,
///     "wall_seconds": W,            // whole-binary wall clock
///     "simulated_slots": T,         // total slots counted via add_slots()
///     "slots_per_second": T / W,
///     "sweeps": { "<sweep name>": [ {row}, … ], … },
///     "metrics": { … }              // optional bench-specific scalars
///   }
class BenchReport {
 public:
  explicit BenchReport(std::string name);
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Add a named sweep: an array of per-point row objects.
  void add_sweep(const std::string& name, JsonValue rows);

  /// Record a bench-specific scalar under "metrics".
  void set_metric(const std::string& key, JsonValue value);

  /// Count simulated slots toward the slots/sec figure.
  void add_slots(std::size_t n) { simulated_slots_ += n; }

  /// Finalize and write BENCH_<name>.json; called by the destructor if the
  /// bench did not call it explicitly.
  void write();

 private:
  std::string name_;
  JsonValue sweeps_ = JsonValue::object();
  JsonValue metrics_ = JsonValue::object();
  std::size_t simulated_slots_ = 0;
  double start_seconds_ = 0.0;
  bool written_ = false;
};

}  // namespace ctj::bench
