// Shared plumbing of ctj_benchmark: options, per-run results, and the
// in-memory span tracer the traced passes record into.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the public functions of each src/ layer (rl, core, serve, io); nothing
// inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_stats.hpp"
#include "common/json.hpp"

namespace ctj::ctjbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  /// Tiny budgets for the ctest smoke run; every check stays on.
  bool smoke = false;
  /// Directory for spool files (created and removed by the serve workloads).
  std::string scratch_dir = "ctjbench_scratch";
};

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the benchmark ends. A disabled
/// tracer records nothing, so the same replay code serves as the untraced
/// correctness check. Single-threaded: only the benchmark's driving thread
/// records.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span; returns its index (-1 when disabled).
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, request, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void end(std::int64_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  /// Re-label a closed span (an observe() that turned out to learn).
  void rename(std::int64_t index, const char* name) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
  }

  /// Time `fn` as one span.
  template <typename Fn>
  void timed(const char* name, std::uint64_t request, std::int64_t parent,
             Fn&& fn) {
    const std::int64_t index = begin(name, request, parent);
    fn();
    end(index);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (microseconds) of every span with this name.
  std::vector<double> durations_us(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one workload run produced. End-to-end metrics come from the untraced
/// pass; per-layer metrics only from a traced run (missing names read 0:
/// that layer or operation is not exercised by the workload).
struct WorkloadResult {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double latency_p50_ms = 0.0;
  std::vector<std::pair<std::string, double>> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t workers = 1;  // threads doing the measured work
  std::vector<std::string> failures;  // failed correctness checks
  JsonValue details = JsonValue::object();

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void layer(const std::string& name, double value) {
    per_layer.emplace_back(name, value);
  }
};

/// Median of the durations of spans named `name`, scaled from µs by `scale`
/// (1 for µs, 1e-3 for ms); 0 when there are none.
inline double span_p50(const Tracer& tracer, std::string_view name,
                       double scale = 1.0) {
  const std::vector<double> d = tracer.durations_us(name);
  return d.empty() ? 0.0 : benchstats::median(d) * scale;
}

/// Summed duration (µs) of the spans named `name`.
inline double span_total_us(const Tracer& tracer, std::string_view name) {
  double sum = 0.0;
  for (double d : tracer.durations_us(name)) sum += d;
  return sum;
}

/// The judged p50; the tail (p90, p99 where ≥ 10 samples lie beyond it)
/// goes to the record's details.
inline void fill_latency(WorkloadResult& out,
                         const std::vector<double>& samples_ms) {
  out.latency_p50_ms = benchstats::median(samples_ms);
  out.details["latency_samples"] = JsonValue(samples_ms.size());
  for (const auto& [p, key] : {std::pair{90.0, "latency_p90_ms"},
                               std::pair{99.0, "latency_p99_ms"}}) {
    if (const auto v = benchstats::supported_percentile(samples_ms, p)) {
      out.details[key] = JsonValue(*v);
    }
  }
}

/// Set-up time: run `setup` `times` times and return the median seconds.
template <typename Fn>
double median_setup_seconds(int times, Fn&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    setup();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return benchstats::median(samples);
}

WorkloadResult run_train(const Options& options, Tracer& tracer);
WorkloadResult run_eval(const Options& options, Tracer& tracer);
WorkloadResult run_serve_sweep(const Options& options, Tracer& tracer);
WorkloadResult run_serve_stream(const Options& options, Tracer& tracer);

}  // namespace ctj::ctjbench
