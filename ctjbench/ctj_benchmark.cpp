// ctj_benchmark — the repository benchmark: four workloads, end-to-end
// metrics from an untraced pass, per-layer metrics from a traced pass, and
// correctness checks on every run.
//
//   ctj_benchmark --workload train|eval|serve_sweep|serve_stream --seed N
//                 [--seconds S] [--trace SPANS.jsonl] [--json RECORD.json]
//                 [--scratch DIR]
//   ctj_benchmark --smoke      all four workloads at tiny budgets, traced
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics, or with --trace the per-layer ones. The
// --json record also carries git_rev, host_cpus, simd_level, workers, seed
// and the workload's details. The exit code is non-zero when any
// correctness check fails. See BENCHMARK.md.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/kernels.hpp"
#include "ctj_git_rev.hpp"

namespace {

using namespace ctj;
using namespace ctj::ctjbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

// Every traced run reports all of these; 0 means the workload does not
// exercise that layer or operation.
constexpr MetricDef kPerLayer[] = {
    {"rl.act_batch.us_p50", "us"},
    {"core.venv_step.us_p50", "us"},
    {"core.windows_push.us_p50", "us"},
    {"rl.observe.us_p50", "us"},
    {"rl.learn.calls", "count"},
    {"rl.learn.us_p50", "us"},
    {"rl.learn.share", "share"},
    {"rl.infer.us_p50", "us"},
    {"rl.infer.share", "share"},
    {"serve.submit.us_p50", "us"},
    {"serve.submit.us_p90", "us"},
    {"gen.late_ms_max", "ms"},
    {"serve.first_quantum_wait_ms_p50", "ms"},
    {"serve.evictions", "count"},
    {"serve.revivals", "count"},
    {"serve.quanta", "count"},
    {"serve.tenant_create.us_p50", "us"},
    {"serve.tenant_run.ms_p50.dqn", "ms"},
    {"serve.tenant_run.ms_p50.ql", "ms"},
    {"serve.tenant_run.ms_p50.passive", "ms"},
    {"serve.tenant_run.ms_p50.random", "ms"},
    {"serve.result.ms_p50.dqn", "ms"},
    {"serve.result.ms_p50.ql", "ms"},
    {"serve.result.ms_p50.passive", "ms"},
    {"serve.result.ms_p50.random", "ms"},
    {"io.spool_save.ms_p50", "ms"},
    {"io.spool_load.ms_p50", "ms"},
    {"serve.sched_residual_share", "share"},
    {"trace_overhead_share", "share"},
};

constexpr const char* kWorkloads[] = {"train", "eval", "serve_sweep",
                                      "serve_stream"};

WorkloadResult run_workload(const Options& options, Tracer& tracer) {
  if (options.workload == "train") return run_train(options, tracer);
  if (options.workload == "eval") return run_eval(options, tracer);
  if (options.workload == "serve_sweep") {
    return run_serve_sweep(options, tracer);
  }
  if (options.workload == "serve_stream") {
    return run_serve_stream(options, tracer);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

JsonValue metric_json(double value, const char* unit) {
  JsonValue m = JsonValue::object();
  m["value"] = JsonValue(value);
  m["unit"] = JsonValue(unit);
  return m;
}

/// Name → value of every metric the contract line carries, in table order.
std::vector<std::pair<MetricDef, double>> collect(const WorkloadResult& r,
                                                  bool per_layer,
                                                  double rss_mb) {
  std::vector<std::pair<MetricDef, double>> out;
  if (!per_layer) {
    const double values[] = {r.setup_s, rss_mb, r.throughput_per_s,
                             r.latency_p50_ms};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
    return out;
  }
  std::map<std::string, double> reported(r.per_layer.begin(),
                                         r.per_layer.end());
  for (const MetricDef& def : kPerLayer) {
    const auto it = reported.find(def.name);
    out.emplace_back(def, it == reported.end() ? 0.0 : it->second);
    if (it != reported.end()) reported.erase(it);
  }
  if (!reported.empty()) {
    throw std::logic_error("per-layer metric '" + reported.begin()->first +
                           "' is missing from the metric table");
  }
  return out;
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : tracer.spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

/// Print `metrics` by name with units and return them as a JSON object.
JsonValue report(const std::vector<std::pair<MetricDef, double>>& metrics) {
  JsonValue out = JsonValue::object();
  for (const auto& [def, value] : metrics) {
    std::cout << "  " << def.name << " = " << value << " " << def.unit << "\n";
    out[def.name] = metric_json(value, def.unit);
  }
  return out;
}

int run_one(const Options& options, const std::string& trace_path,
            const std::string& json_path) {
  Tracer tracer(options.trace);
  WorkloadResult result = run_workload(options, tracer);
  const double rss = peak_rss_mb();
  const bool correct = result.failures.empty();

  std::cout << "workload " << options.workload << "  seed " << options.seed
            << "  seconds " << options.seconds << "  trace "
            << (options.trace ? 1 : 0) << "\n";
  for (const std::string& f : result.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  const JsonValue end_to_end = report(collect(result, false, rss));
  JsonValue per_layer = JsonValue::object();
  if (options.trace) {
    per_layer = report(collect(result, true, rss));
    write_spans(tracer, trace_path);
  }

  if (!json_path.empty()) {
    JsonValue record = JsonValue::object();
    record["workload"] = JsonValue(options.workload);
    record["seed"] = JsonValue(static_cast<std::size_t>(options.seed));
    record["seconds"] = JsonValue(options.seconds);
    record["trace"] = JsonValue(options.trace);
    record["git_rev"] = JsonValue(CTJ_GIT_REV);
    record["host_cpus"] = JsonValue(
        static_cast<std::size_t>(std::thread::hardware_concurrency()));
    record["simd_level"] = JsonValue(kern::simd_level_name());
    record["workers"] = JsonValue(result.workers);
    record["correct"] = JsonValue(correct);
    record["attempted"] = JsonValue(static_cast<std::size_t>(result.attempted));
    record["failed"] = JsonValue(static_cast<std::size_t>(result.failed));
    JsonValue failures = JsonValue::array();
    for (const std::string& f : result.failures) {
      failures.push_back(JsonValue(f));
    }
    record["check_failures"] = std::move(failures);
    record["end_to_end"] = end_to_end;
    if (options.trace) record["per_layer"] = per_layer;
    record["details"] = std::move(result.details);
    std::ofstream out(json_path);
    record.dump(out, 2);
    out << "\n";
    if (!out) throw std::runtime_error("cannot write " + json_path);
  }

  JsonValue line = JsonValue::object();
  line["correct"] = JsonValue(correct);
  line["attempted"] = JsonValue(static_cast<std::size_t>(result.attempted));
  line["failed"] = JsonValue(static_cast<std::size_t>(result.failed));
  line["metrics"] = options.trace ? per_layer : end_to_end;
  std::cout << line.dump(0) << std::endl;
  return correct ? 0 : 1;
}

/// Every workload at tiny budgets with tracing and all checks on.
int run_smoke(const std::string& scratch) {
  int failures = 0;
  for (const char* workload : kWorkloads) {
    Options options;
    options.workload = workload;
    options.seed = 3;
    options.seconds = 0.3;
    options.trace = true;
    options.smoke = true;
    options.scratch_dir = scratch;
    Tracer tracer(true);
    const WorkloadResult r = run_workload(options, tracer);
    collect(r, true, 0.0);  // every reported layer metric is in the table
    const bool ok = r.failures.empty() && r.failed == 0 && r.attempted > 0 &&
                    r.throughput_per_s > 0.0 && !tracer.spans().empty();
    std::cout << (ok ? "ok    " : "FAIL  ") << workload << "  attempted "
              << r.attempted << "  spans " << tracer.spans().size() << "\n";
    for (const std::string& f : r.failures) std::cout << "  " << f << "\n";
    if (!ok) ++failures;
  }
  std::filesystem::remove_all(scratch);
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "ctj_benchmark: " << error << "\n"
            << "usage: ctj_benchmark --workload "
               "train|eval|serve_sweep|serve_stream --seed N [--seconds S]\n"
               "                     [--trace SPANS.jsonl] "
               "[--json RECORD.json] [--scratch DIR]\n"
               "       ctj_benchmark --smoke [--scratch DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Fix glibc's mmap threshold at 128 KiB, its starting value. Left
  // dynamic, it rises after the first large free (a DQN tenant's replay
  // reservation is ~1.4 MB), so later buffers are recycled from the heap
  // and peak RSS varied by ±10% between identical serve_sweep runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options options;
  std::string trace_path;
  std::string json_path;
  bool smoke = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace_path = value();
        options.trace = true;
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--scratch") {
        options.scratch_dir = value();
      } else if (arg == "--smoke") {
        smoke = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  try {
    if (smoke) return run_smoke(options.scratch_dir);
    if (options.workload.empty() || !have_seed) {
      usage("--workload and --seed are required");
    }
    if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
      usage("--seconds must be in (0, 60]");
    }
    return run_one(options, trace_path, json_path);
  } catch (const std::exception& e) {
    std::cerr << "ctj_benchmark: " << e.what() << "\n";
    return 1;
  }
}
