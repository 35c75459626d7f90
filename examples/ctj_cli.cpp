// ctj_cli — flag-driven experiment runner for the anti-jamming library.
//
// Runs any scheme against either the slot-level competition environment or
// the full field simulator, with the paper's parameters exposed as flags:
//
//   ./build/examples/ctj_cli --scheme=rl --mode=max --slots=20000
//   ./build/examples/ctj_cli --scheme=oracle --mode=random --lj=60 --lh=20
//   ./build/examples/ctj_cli --scheme=passive --field --slot-duration=3
//   ./build/examples/ctj_cli --scheme=rl --field --signal=wifi --train=30000
//
// Subcommands for persistent models (CTJS checkpoints, see src/io):
//
//   ./build/examples/ctj_cli train --out=model.ctjs --checkpoint-every=5000
//   ./build/examples/ctj_cli train --out=model.ctjs --resume   # pick up a
//                                                    # killed run, bit-identical
//   ./build/examples/ctj_cli eval --model=model.ctjs --slots=20000
//
// Subcommand for the self-play arena (src/arena, ctj_arena):
//
//   ./build/examples/ctj_cli arena --generations=4 --out=arena.ctjs
//   ./build/examples/ctj_cli arena --generations=6 --out=arena.ctjs --resume
//
// Subcommands for the fleet-scale serve daemon (src/serve, ctj_serve):
//
//   ./build/examples/ctj_cli serve --socket=/tmp/ctj.sock --workers=4
//   ./build/examples/ctj_cli submit --socket=/tmp/ctj.sock --scheme=ql
//       --archetype=sweep --slots=4000 --wait
//   ./build/examples/ctj_cli status --socket=/tmp/ctj.sock --id=3
//   ./build/examples/ctj_cli results --socket=/tmp/ctj.sock --id=3 --wait
//   ./build/examples/ctj_cli stats --socket=/tmp/ctj.sock
//   ./build/examples/ctj_cli shutdown --socket=/tmp/ctj.sock
//
// Flags: --scheme=rl|ql|oracle|passive|random  --mode=max|random
//        --slots=N --train=N --lj=X --lh=X --cycle=N --seed=N
//        --field --slot-duration=S --jx-slot=S --nodes=N
//        --signal=emubee|wifi|zigbee --no-jammer
//        train: --out=FILE --checkpoint-every=N --resume
//        eval:  --model=FILE
//        arena: --generations=G --warmup-slots=N --jammer-slots=N
//               --defender-slots=N
//               --eval-slots=N --pool=N --out=FILE --resume
//        serve: --socket=PATH --workers=N --max-resident=N --quantum=N
//               --spool=DIR
//        submit: --socket=PATH --scheme=... --archetype=NAME|kernel
//                --channels=K --sweep=m --mode=max|random --seed=N
//                --slots=N --replicas=N --window=N --history=N
//                --record-rewards --wait
//        status/results: --socket=PATH --id=N (--wait blocks for results)
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arena/self_play.hpp"
#include "common/table.hpp"
#include "core/checkpoint.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "core/field.hpp"
#include "core/mdp_scheme.hpp"
#include "core/passive_fh.hpp"
#include "core/qlearning_scheme.hpp"
#include "core/random_fh.hpp"
#include "core/rl_fh.hpp"
#include "core/trainer.hpp"
#include "io/format.hpp"
#include "serve/engine.hpp"
#include "serve/wire.hpp"

using namespace ctj;
using namespace ctj::core;

namespace {

/// Minimal --key=value parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unknown argument: " << arg << "\n";
        std::exit(2);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "1";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double get_num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

std::unique_ptr<AntiJammingScheme> make_scheme(const std::string& name,
                                               JammerPowerMode mode,
                                               std::uint64_t seed) {
  if (name == "passive") {
    PassiveFhScheme::Config config;
    config.seed = seed;
    return std::make_unique<PassiveFhScheme>(config);
  }
  if (name == "random") {
    RandomFhScheme::Config config;
    config.seed = seed;
    return std::make_unique<RandomFhScheme>(config);
  }
  if (name == "oracle") {
    MdpOracleScheme::Config config;
    config.params.mode = mode;
    config.seed = seed;
    return std::make_unique<MdpOracleScheme>(config);
  }
  if (name == "ql") {
    QLearningScheme::Config config;
    config.seed = seed;
    return std::make_unique<QLearningScheme>(config);
  }
  if (name == "rl") {
    DqnScheme::Config config;
    config.history = 4;
    config.hidden = {32, 32};
    config.seed = seed;
    return std::make_unique<DqnScheme>(config);
  }
  std::cerr << "unknown scheme '" << name
            << "' (use rl|ql|oracle|passive|random)\n";
  std::exit(2);
}

/// Train learners on the slot-level environment before deployment.
void maybe_train(AntiJammingScheme& scheme, const EnvironmentConfig& env_config,
                 std::size_t train_slots) {
  auto* rl = dynamic_cast<DqnScheme*>(&scheme);
  auto* ql = dynamic_cast<QLearningScheme*>(&scheme);
  if (rl == nullptr && ql == nullptr) return;
  std::cout << "training on " << train_slots << " slots...\n";
  CompetitionEnvironment env(env_config);
  if (rl != nullptr) {
    TrainerConfig trainer;
    trainer.max_slots = train_slots;
    train(*rl, env, trainer);
    rl->set_training(false);
    rl->reset();
  } else {
    for (std::size_t slot = 0; slot < train_slots; ++slot) {
      play_slot(*ql, env);
    }
    ql->set_training(false);
    ql->reset();
  }
}

channel::JammingSignalType parse_signal(const std::string& name) {
  if (name == "emubee") return channel::JammingSignalType::kEmuBee;
  if (name == "wifi") return channel::JammingSignalType::kWifi;
  if (name == "zigbee") return channel::JammingSignalType::kZigbee;
  std::cerr << "unknown signal '" << name << "'\n";
  std::exit(2);
}

EnvironmentConfig env_from_flags(const Flags& flags, JammerPowerMode mode,
                                 std::uint64_t seed) {
  auto env_config = EnvironmentConfig::defaults();
  env_config.mode = mode;
  env_config.loss_jam = flags.get_num("lj", env_config.loss_jam);
  env_config.loss_hop = flags.get_num("lh", env_config.loss_hop);
  if (flags.has("cycle")) {
    env_config.channels_per_sweep = 1;
    env_config.num_channels = static_cast<int>(flags.get_num("cycle", 4));
  }
  env_config.seed = seed;
  return env_config;
}

/// `ctj_cli train`: train a DQN with periodic CTJS checkpoints. The output
/// file doubles as the resume point (--resume) and as an eval model.
int cmd_train(const Flags& flags) {
  const std::string out = flags.get("out", "");
  if (out.empty()) {
    std::cerr << "train needs --out=FILE (the checkpoint to write)\n";
    return 2;
  }
  const auto mode = flags.get("mode", "max") == "random"
                        ? JammerPowerMode::kRandomPower
                        : JammerPowerMode::kMaxPower;
  const auto seed = static_cast<std::uint64_t>(flags.get_num("seed", 1));
  const auto env_config = env_from_flags(flags, mode, seed);

  DqnScheme::Config scheme_config;
  scheme_config.num_channels = env_config.num_channels;
  scheme_config.num_power_levels = env_config.num_power_levels();
  scheme_config.history = 4;
  scheme_config.hidden = {32, 32};
  scheme_config.seed = seed + 7;
  DqnScheme scheme(scheme_config);
  CompetitionEnvironment env(env_config);

  TrainerConfig trainer;
  trainer.max_slots = static_cast<std::size_t>(flags.get_num("train", 16000));
  CheckpointOptions ckpt;
  ckpt.path = out;
  ckpt.every_slots =
      static_cast<std::size_t>(flags.get_num("checkpoint-every", 0));
  ckpt.resume = flags.has("resume");
  trainer.checkpoint = ckpt;

  const auto stats = train(scheme, env, trainer);
  std::cout << "trained " << stats.slots_trained << " slots, final mean reward "
            << TextTable::fmt(stats.final_mean_reward, 2) << "\n"
            << "checkpoint: " << out << "\n";
  return 0;
}

/// `ctj_cli eval`: reconstruct the scheme a checkpoint was trained with,
/// restore its full state, freeze and evaluate it.
int cmd_eval(const Flags& flags) {
  const std::string model = flags.get("model", "");
  if (model.empty()) {
    std::cerr << "eval needs --model=FILE (a checkpoint written by "
                 "`ctj_cli train` or the trainer)\n";
    return 2;
  }
  DqnScheme scheme(read_scheme_config(model));
  load_scheme(scheme, model);
  scheme.set_training(false);
  scheme.reset();

  const auto mode = flags.get("mode", "max") == "random"
                        ? JammerPowerMode::kRandomPower
                        : JammerPowerMode::kMaxPower;
  const auto seed = static_cast<std::uint64_t>(flags.get_num("seed", 1));
  const auto slots = static_cast<std::size_t>(flags.get_num("slots", 20000));
  auto env_config = env_from_flags(flags, mode, seed + 1000);
  CompetitionEnvironment env(env_config);
  const auto m = evaluate(scheme, env, slots);

  TextTable table({"metric", "value"});
  table.add_row({"model", model});
  table.add_row({"jammer mode", std::string(to_string(mode))});
  table.add_row({"ST (%)", TextTable::fmt(100 * m.st, 2)});
  table.add_row({"AH (%)", TextTable::fmt(100 * m.ah, 2)});
  table.add_row({"AP (%)", TextTable::fmt(100 * m.ap, 2)});
  table.add_row({"mean reward", TextTable::fmt(m.mean_reward, 2)});
  table.print(std::cout);
  return 0;
}

/// `ctj_cli arena`: run the self-play arena — alternating best-response
/// training between the DQN defender and the learned jammer, with
/// per-generation exploitability and a final head-to-head cross table.
/// --out=FILE checkpoints every generation; --resume picks a killed arena
/// up after the last completed generation (and a larger --generations
/// extends a finished one).
int cmd_arena(const Flags& flags) {
  const auto mode = flags.get("mode", "max") == "random"
                        ? JammerPowerMode::kRandomPower
                        : JammerPowerMode::kMaxPower;
  const auto seed = static_cast<std::uint64_t>(flags.get_num("seed", 1));

  arena::SelfPlayConfig config = arena::SelfPlayConfig::defaults();
  config.env = env_from_flags(flags, mode, seed);
  config.jammer = jammer::JammerSpec::defaults("learned");
  config.defender.num_channels = config.env.num_channels;
  config.defender.num_power_levels = config.env.num_power_levels();
  config.defender.history = 4;
  config.defender.hidden = {32, 32};
  config.defender.seed = seed + 7;
  config.generations =
      static_cast<std::size_t>(flags.get_num("generations", 4));
  config.warmup_slots =
      static_cast<std::size_t>(flags.get_num("warmup-slots", 4000));
  config.jammer_slots =
      static_cast<std::size_t>(flags.get_num("jammer-slots", 4000));
  config.defender_slots =
      static_cast<std::size_t>(flags.get_num("defender-slots", 4000));
  config.eval_slots =
      static_cast<std::size_t>(flags.get_num("eval-slots", 2000));
  config.pool_capacity =
      static_cast<std::size_t>(flags.get_num("pool", 8));
  config.seed = seed;
  const std::string out = flags.get("out", "");
  if (!out.empty()) {
    CheckpointOptions ckpt;
    ckpt.path = out;
    ckpt.resume = flags.has("resume");
    config.checkpoint = ckpt;
  } else if (flags.has("resume")) {
    std::cerr << "arena --resume needs --out=FILE (the checkpoint)\n";
    return 2;
  }

  arena::SelfPlay arena_run(std::move(config));
  const arena::SelfPlayResult result = arena_run.run();
  if (result.resumed) std::cout << "(resumed from " << out << ")\n";

  TextTable table({"gen", "jam hit%", "def train R", "R vs pool", "R vs BR",
                   "exploitability"});
  for (const arena::GenerationResult& g : result.generations) {
    table.add_row({std::to_string(g.generation),
                   TextTable::fmt(100.0 * g.jammer_hit_rate, 1),
                   TextTable::fmt(g.defender_train_reward, 1),
                   TextTable::fmt(g.reward_vs_pool, 1),
                   TextTable::fmt(g.reward_vs_best_response, 1),
                   TextTable::fmt(g.exploitability, 2)});
  }
  table.print(std::cout);

  std::cout << "\nhead-to-head (mean defender reward, defender generation "
               "down, jammer generation across):\n";
  std::vector<std::string> header = {"def \\ jam"};
  for (std::size_t g : result.jammer_generations) {
    header.push_back("g" + std::to_string(g));
  }
  TextTable cross(header);
  for (std::size_t i = 0; i < result.cross_table.size(); ++i) {
    std::vector<std::string> cells = {
        "g" + std::to_string(result.defender_generations[i])};
    for (double r : result.cross_table[i]) {
      cells.push_back(TextTable::fmt(r, 1));
    }
    cross.add_row(cells);
  }
  cross.print(std::cout);
  std::cout << "\n" << result.slots_total << " arena slots in "
            << TextTable::fmt(result.wall_seconds, 1) << " s\n";
  if (!out.empty()) std::cout << "checkpoint: " << out << "\n";
  return 0;
}

/// `ctj_cli serve`: host a ServeEngine on a unix socket in-process (same
/// loop as the ctj_serve daemon) until a client sends shutdown.
int cmd_serve(const Flags& flags) {
  serve::ServeConfig config;
  config.workers = static_cast<std::size_t>(flags.get_num("workers", 1));
  config.max_resident =
      static_cast<std::size_t>(flags.get_num("max-resident", 256));
  config.quantum_slots =
      static_cast<std::size_t>(flags.get_num("quantum", 256));
  config.spool_dir = flags.get("spool", ".ctj_serve_spool");
  const std::string socket_path = flags.get("socket", "/tmp/ctj_serve.sock");
  serve::ServeEngine engine(config);
  std::cout << "serving on " << socket_path << " with " << config.workers
            << " workers\n";
  serve::run_server(engine, socket_path);
  return 0;
}

serve::JobSpec spec_from_flags(const Flags& flags) {
  serve::JobSpec spec;
  std::string scheme = flags.get("scheme", "dqn");
  if (scheme == "rl") scheme = "dqn";  // accept the classic ctj_cli name
  spec.scheme = scheme;
  const std::string archetype = flags.get("archetype", "kernel");
  if (archetype == "kernel") {
    spec.jammer = jammer::JammerSpec::kernel();
  } else {
    spec.jammer = jammer::JammerSpec::defaults(archetype);
  }
  spec.num_channels = static_cast<int>(flags.get_num("channels", 16));
  spec.channels_per_sweep = static_cast<int>(flags.get_num("sweep", 4));
  spec.mode = flags.get("mode", "max") == "random"
                  ? JammerPowerMode::kRandomPower
                  : JammerPowerMode::kMaxPower;
  spec.loss_jam = flags.get_num("lj", spec.loss_jam);
  spec.loss_hop = flags.get_num("lh", spec.loss_hop);
  spec.seed = static_cast<std::uint64_t>(flags.get_num("seed", 1));
  spec.slots = static_cast<std::uint64_t>(flags.get_num("slots", 4000));
  spec.replicas = static_cast<std::uint64_t>(flags.get_num("replicas", 1));
  spec.reward_window =
      static_cast<std::uint64_t>(flags.get_num("window", 2000));
  spec.history = static_cast<std::uint64_t>(flags.get_num("history", 4));
  spec.record_rewards = flags.has("record-rewards");
  // Keep the jammer geometry in sync with the environment's (the env would
  // override it anyway; syncing here keeps JAMRCFG checks transparent).
  spec.jammer.num_channels = spec.num_channels;
  spec.jammer.channels_per_sweep = spec.channels_per_sweep;
  spec.jammer.mode = spec.mode;
  return spec;
}

void print_result(std::uint64_t id, const serve::JobResult& result) {
  TextTable table({"metric", "value"});
  table.add_row({"job", TextTable::fmt(static_cast<double>(id), 0)});
  table.add_row(
      {"slots", TextTable::fmt(static_cast<double>(result.slots_run), 0)});
  table.add_row({"final mean reward",
                 TextTable::fmt(result.final_mean_reward, 2)});
  table.add_row({"success rate (%)",
                 TextTable::fmt(100.0 * static_cast<double>(result.successes) /
                                    static_cast<double>(result.slots_run),
                                2)});
  table.add_row(
      {"hops", TextTable::fmt(static_cast<double>(result.hops), 0)});
  table.add_row({"evictions",
                 TextTable::fmt(static_cast<double>(result.evictions), 0)});
  table.add_row({"reward crc", std::to_string(result.reward_crc)});
  table.add_row({"state crc", std::to_string(result.state_crc)});
  table.print(std::cout);
}

/// `ctj_cli submit`: send a JobSpec to a running daemon; --wait blocks for
/// and prints the result.
int cmd_submit(const Flags& flags) {
  serve::ServeClient client(flags.get("socket", "/tmp/ctj_serve.sock"));
  const serve::JobSpec spec = spec_from_flags(flags);
  const std::uint64_t id = client.submit(spec);
  std::cout << "job " << id << " submitted\n";
  if (flags.has("wait")) {
    const auto result = client.result(id, /*wait=*/true);
    print_result(id, *result);
  }
  return 0;
}

int cmd_status(const Flags& flags) {
  serve::ServeClient client(flags.get("socket", "/tmp/ctj_serve.sock"));
  const auto id = static_cast<std::uint64_t>(flags.get_num("id", 0));
  const serve::JobStatus status = client.status(id);
  std::cout << "job " << id << ": " << to_string(status.state) << " "
            << status.slots_done << "/" << status.slots_total << " slots, "
            << status.evictions << " evictions, "
            << (status.resident ? "resident" : "not resident") << "\n";
  return 0;
}

int cmd_results(const Flags& flags) {
  serve::ServeClient client(flags.get("socket", "/tmp/ctj_serve.sock"));
  const auto id = static_cast<std::uint64_t>(flags.get_num("id", 0));
  const auto result = client.result(id, flags.has("wait"));
  if (!result.has_value()) {
    std::cout << "job " << id << " still running\n";
    return 3;
  }
  print_result(id, *result);
  return 0;
}

int cmd_stats(const Flags& flags) {
  serve::ServeClient client(flags.get("socket", "/tmp/ctj_serve.sock"));
  const serve::EngineStats stats = client.stats();
  TextTable table({"metric", "value"});
  const auto row = [&](const char* name, std::uint64_t v) {
    table.add_row({name, TextTable::fmt(static_cast<double>(v), 0)});
  };
  row("submitted", stats.submitted);
  row("completed", stats.completed);
  row("failed", stats.failed);
  row("resident", stats.resident);
  row("evictions", stats.evictions);
  row("revivals", stats.revivals);
  row("slots total", stats.slots_total);
  table.print(std::cout);
  return 0;
}

int cmd_shutdown(const Flags& flags) {
  serve::ServeClient client(flags.get("socket", "/tmp/ctj_serve.sock"));
  client.shutdown();
  std::cout << "shutdown requested\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A non-flag first argument selects a subcommand; the remaining arguments
  // stay --key=value flags.
  if (argc > 1 && argv[1][0] != '-') {
    const std::string command = argv[1];
    const Flags sub_flags(argc - 1, argv + 1);
    try {
      if (command == "train") return cmd_train(sub_flags);
      if (command == "eval") return cmd_eval(sub_flags);
      if (command == "arena") return cmd_arena(sub_flags);
      if (command == "serve") return cmd_serve(sub_flags);
      if (command == "submit") return cmd_submit(sub_flags);
      if (command == "status") return cmd_status(sub_flags);
      if (command == "results") return cmd_results(sub_flags);
      if (command == "stats") return cmd_stats(sub_flags);
      if (command == "shutdown") return cmd_shutdown(sub_flags);
    } catch (const io::IoError& error) {
      std::cerr << "ctj_cli " << command << ": " << error.what() << "\n";
      return 1;
    } catch (const std::exception& error) {
      std::cerr << "ctj_cli " << command << ": " << error.what() << "\n";
      return 1;
    }
    std::cerr << "unknown subcommand '" << command
              << "' (use train|eval|arena|serve|submit|status|results|stats|"
                 "shutdown)\n";
    return 2;
  }

  const Flags flags(argc, argv);
  if (flags.has("help")) {
    std::cout << "see the header comment of examples/ctj_cli.cpp\n";
    return 0;
  }

  const auto mode = flags.get("mode", "max") == "random"
                        ? JammerPowerMode::kRandomPower
                        : JammerPowerMode::kMaxPower;
  const auto seed = static_cast<std::uint64_t>(flags.get_num("seed", 1));
  const auto slots = static_cast<std::size_t>(flags.get_num("slots", 20000));
  const auto train_slots =
      static_cast<std::size_t>(flags.get_num("train", 16000));

  auto env_config = env_from_flags(flags, mode, seed);

  auto scheme = make_scheme(flags.get("scheme", "rl"), mode, seed + 7);
  maybe_train(*scheme, env_config, train_slots);

  if (!flags.has("field")) {
    env_config.seed = seed + 1000;
    CompetitionEnvironment env(env_config);
    const auto m = evaluate(*scheme, env, slots);
    TextTable table({"metric", "value"});
    table.add_row({"scheme", scheme->name()});
    table.add_row({"jammer mode", std::string(to_string(mode))});
    table.add_row({"ST (%)", TextTable::fmt(100 * m.st, 2)});
    table.add_row({"AH (%)", TextTable::fmt(100 * m.ah, 2)});
    table.add_row({"SH (%)", TextTable::fmt(100 * m.sh, 2)});
    table.add_row({"AP (%)", TextTable::fmt(100 * m.ap, 2)});
    table.add_row({"SP (%)", TextTable::fmt(100 * m.sp, 2)});
    table.add_row({"mean reward", TextTable::fmt(m.mean_reward, 2)});
    table.print(std::cout);
    return 0;
  }

  FieldConfig field = FieldConfig::defaults();
  field.jammer.mode = mode;
  field.jammer_enabled = !flags.has("no-jammer");
  field.network.slot_duration_s = flags.get_num("slot-duration", 3.0);
  field.jammer_slot_s = flags.get_num("jx-slot", field.network.slot_duration_s);
  field.network.num_peripherals = static_cast<int>(flags.get_num("nodes", 4));
  field.signal_type = parse_signal(flags.get("signal", "emubee"));
  field.network.seed = seed + 11;
  field.seed = seed + 12;

  const std::size_t field_slots =
      static_cast<std::size_t>(flags.get_num("slots", 300));
  FieldExperiment experiment(field, *scheme);
  const auto result = experiment.run(field_slots);

  TextTable table({"metric", "value"});
  table.add_row({"scheme", scheme->name()});
  table.add_row({"signal", std::string(channel::to_string(field.signal_type))});
  table.add_row({"slots", TextTable::fmt(static_cast<double>(result.slots), 0)});
  table.add_row({"goodput (pkts/slot)",
                 TextTable::fmt(result.goodput_packets_per_slot, 1)});
  table.add_row({"ST (%)", TextTable::fmt(100 * result.metrics.st, 2)});
  table.add_row({"utilization (%)", TextTable::fmt(100 * result.utilization, 2)});
  table.add_row({"negotiation (ms/slot)",
                 TextTable::fmt(1000 * result.mean_negotiation_s, 1)});
  table.print(std::cout);
  return 0;
}
