// Metric math shared by ctj_benchmark and its unit test: percentiles,
// quartiles, the open-loop arrival schedule and the stage pass rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace ctj::benchstats {

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("p out of (0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Samples strictly above the nearest-rank position of p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The percentile only when at least `min_beyond` samples lie beyond it; a
/// tail percentile resting on fewer is not reported.
inline std::optional<double> supported_percentile(
    const std::vector<double>& samples, double p, std::size_t min_beyond = 10) {
  if (samples.empty() || samples_beyond(samples.size(), p) < min_beyond) {
    return std::nullopt;
  }
  return percentile(samples, p);
}

/// Median (p50 nearest rank, so it is always one of the samples).
inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles as Python's statistics.quantiles(data, n=4) computes them (the
/// default "exclusive" method), so the C++ and Python sides agree exactly.
inline Quartiles quartiles(std::vector<double> data) {
  if (data.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const double lo = data[static_cast<std::size_t>(j - 1)];
    const double hi = data[static_cast<std::size_t>(j)];
    q[i - 1] = (lo * static_cast<double>(4 - delta) +
                hi * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Due times (seconds from the start) of a Poisson arrival process at
/// `rate_per_s` over [0, duration_s). The same seed gives the same schedule
/// bit for bit.
inline std::vector<double> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            double duration_s) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("rate must be > 0");
  Rng rng(seed);
  std::vector<double> due;
  double t = rng.exponential(rate_per_s);
  while (t < duration_s) {
    due.push_back(t);
    t += rng.exponential(rate_per_s);
  }
  return due;
}

/// Pass rule of an open-loop stage: every job finished, the backlog drained
/// within kStageDrainLimitS of the last arrival, and p90 latency (from each
/// job's due time) stayed within kStageP90LimitMs.
constexpr double kStageP90LimitMs = 100.0;
constexpr double kStageDrainLimitS = 2.0;

inline bool stage_passes(const std::vector<double>& latencies_ms,
                         std::size_t unfinished, double drain_s) {
  if (unfinished > 0 || latencies_ms.empty()) return false;
  if (drain_s > kStageDrainLimitS) return false;
  return percentile(latencies_ms, 90.0) <= kStageP90LimitMs;
}

}  // namespace ctj::benchstats
