#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/kernels.hpp"
#include "common/math_util.hpp"
#include "common/parallel.hpp"

// Build-time revision stamp (see cmake/git_rev.cmake); falls back to
// "unknown" when the generated header is absent (e.g. non-CMake builds).
#if __has_include("ctj_git_rev.hpp")
#include "ctj_git_rev.hpp"
#endif
#ifndef CTJ_GIT_REV
#define CTJ_GIT_REV "unknown"
#endif

namespace ctj::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double bench_scale() {
  if (const char* s = std::getenv("CTJ_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

std::size_t bench_threads() { return default_parallelism(); }

std::size_t eval_slots() {
  return std::max<std::size_t>(500, static_cast<std::size_t>(20000 * bench_scale()));
}

std::size_t train_slots() {
  return std::max<std::size_t>(1000, static_cast<std::size_t>(16000 * bench_scale()));
}

std::optional<core::CheckpointOptions> checkpoint_options(
    const std::string& tag) {
  const char* dir = std::getenv("CTJ_CKPT_DIR");
  if (dir == nullptr || *dir == '\0' || tag.empty()) return std::nullopt;
  // Work items call this from pool threads: create the directory once.
  static const bool made = [dir] {
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) {
      std::cerr << "CTJ_CKPT_DIR: cannot create directory '" << dir
                << "': " << error.message() << "\n";
      std::exit(EXIT_FAILURE);
    }
    return true;
  }();
  (void)made;
  core::CheckpointOptions options;
  options.path = std::string(dir) + "/" + tag + ".ctjs";
  options.every_slots = 5000;
  if (const char* every = std::getenv("CTJ_CKPT_EVERY")) {
    const long v = std::atol(every);
    if (v > 0) options.every_slots = static_cast<std::size_t>(v);
  }
  options.resume = true;
  return options;
}

core::MetricsReport run_rl_point(core::EnvironmentConfig env,
                                 std::uint64_t seed,
                                 const std::string& ckpt_tag) {
  core::RlExperimentConfig config;
  config.env = env;
  config.env.seed = seed;
  config.eval_seed = seed + 1000;
  config.scheme.history = 4;
  config.scheme.hidden = {32, 32};
  config.scheme.learning_rate = 1.5e-3;
  config.scheme.epsilon_decay_steps = train_slots() / 4;
  config.scheme.epsilon_end = 0.05;
  config.scheme.seed = seed + 500;
  config.train_slots = train_slots();
  config.eval_slots = eval_slots();
  config.checkpoint = checkpoint_options(ckpt_tag);
  return core::run_rl_experiment(config).metrics;
}

std::vector<ModeSweepPoint> run_mode_sweep(
    const std::vector<double>& xs,
    core::EnvironmentConfig (*make_env)(double, JammerPowerMode),
    std::uint64_t seed) {
  // One work item per (x, mode): every item builds its whole experiment
  // from (x, mode, seed) alone, so the fan-out is deterministic.
  const auto flat = parallel_map(
      xs.size() * 2,
      [&](std::size_t item) {
        const double x = xs[item / 2];
        const JammerPowerMode mode = (item % 2 == 0)
                                         ? JammerPowerMode::kMaxPower
                                         : JammerPowerMode::kRandomPower;
        return run_rl_point(make_env(x, mode), seed);
      },
      bench_threads());

  std::vector<ModeSweepPoint> points(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    points[i].x = xs[i];
    points[i].max_mode = flat[2 * i];
    points[i].rand_mode = flat[2 * i + 1];
  }
  return points;
}

std::vector<double> lj_sweep() { return linspace(10.0, 100.0, 10); }

std::vector<double> sweep_cycle_sweep() {
  return {2, 4, 6, 8, 10, 12, 14, 16};
}

std::vector<double> lh_sweep() { return linspace(0.0, 100.0, 11); }

std::vector<double> lp_lower_sweep() { return {6, 7, 8, 9, 10, 11, 12, 13, 14}; }

core::EnvironmentConfig env_with_lj(double lj, JammerPowerMode mode) {
  auto env = core::EnvironmentConfig::defaults();
  env.loss_jam = lj;
  env.mode = mode;
  return env;
}

core::EnvironmentConfig env_with_cycle(double cycle, JammerPowerMode mode) {
  auto env = core::EnvironmentConfig::defaults();
  // The hazard structure only depends on N = ⌈K/m⌉, so sweep the cycle with
  // m = 1 and K = cycle; this keeps the DQN action space (C × PL) small for
  // large cycles.
  env.channels_per_sweep = 1;
  env.num_channels = static_cast<int>(cycle);
  env.mode = mode;
  return env;
}

core::EnvironmentConfig env_with_lh(double lh, JammerPowerMode mode) {
  auto env = core::EnvironmentConfig::defaults();
  env.loss_hop = lh;
  env.mode = mode;
  return env;
}

core::EnvironmentConfig env_with_lp_lower(double lower, JammerPowerMode mode) {
  auto env = core::EnvironmentConfig::defaults();
  env.tx_levels.clear();
  for (int i = 0; i < 10; ++i) env.tx_levels.push_back(lower + i);
  env.mode = mode;
  return env;
}

void print_header(const std::string& title, const std::string& paper_note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!paper_note.empty()) std::cout << "paper: " << paper_note << "\n";
}

JsonValue metrics_json(const core::MetricsReport& m) {
  JsonValue j = JsonValue::object();
  j["st"] = m.st;
  j["ah"] = m.ah;
  j["sh"] = m.sh;
  j["ap"] = m.ap;
  j["sp"] = m.sp;
  j["mean_reward"] = m.mean_reward;
  j["slots"] = m.slots;
  return j;
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_seconds_(now_seconds()) {}

BenchReport::~BenchReport() {
  if (!written_) write();
}

void BenchReport::add_sweep(const std::string& name, JsonValue rows) {
  sweeps_[name] = std::move(rows);
}

void BenchReport::set_metric(const std::string& key, JsonValue value) {
  metrics_[key] = std::move(value);
}

void BenchReport::write() {
  written_ = true;
  const double wall = now_seconds() - start_seconds_;

  JsonValue doc = JsonValue::object();
  doc["schema_version"] = 1;
  doc["bench"] = name_;
  doc["git_rev"] = CTJ_GIT_REV;
  doc["simd_level"] = kern::simd_level_name();
  doc["threads"] = bench_threads();
  doc["scale"] = bench_scale();
  doc["train_slots_per_point"] = train_slots();
  doc["eval_slots_per_point"] = eval_slots();
  doc["wall_seconds"] = wall;
  doc["simulated_slots"] = simulated_slots_;
  doc["slots_per_second"] =
      wall > 0.0 ? static_cast<double>(simulated_slots_) / wall : 0.0;
  if (sweeps_.size() > 0) doc["sweeps"] = std::move(sweeps_);
  if (metrics_.size() > 0) doc["metrics"] = std::move(metrics_);

  std::string dir = ".";
  if (const char* d = std::getenv("CTJ_BENCH_JSON_DIR")) {
    if (*d != '\0') dir = d;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream os(path);
  if (!os.is_open()) {
    std::cerr << "BenchReport: cannot open " << path << " for writing\n";
    return;
  }
  doc.dump(os, 2);
  os << '\n';
  std::cout << "\nperf record: " << path << " (wall "
            << static_cast<long>(wall * 1000.0) << " ms, threads "
            << bench_threads() << ")\n";
}

}  // namespace ctj::bench
