// Metric math of ctj_benchmark: percentiles, quartiles, the arrival
// schedule and the open-loop stage rule.
#include <gtest/gtest.h>

#include <vector>

#include "bench_stats.hpp"

namespace bs = ctj::benchstats;

TEST(BenchmarkStats, NearestRankPercentile) {
  const std::vector<double> v = {40, 15, 50, 35, 20};  // unsorted on purpose
  EXPECT_EQ(bs::percentile(v, 5), 15);
  EXPECT_EQ(bs::percentile(v, 30), 20);
  EXPECT_EQ(bs::percentile(v, 40), 20);
  EXPECT_EQ(bs::percentile(v, 50), 35);
  EXPECT_EQ(bs::percentile(v, 100), 50);
  EXPECT_EQ(bs::median(v), 35);
  EXPECT_THROW(bs::percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(bs::percentile(v, 0), std::invalid_argument);
}

TEST(BenchmarkStats, TailPercentileNeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_EQ(bs::samples_beyond(999, 99), 9u);
  EXPECT_FALSE(bs::supported_percentile(v, 99).has_value());
  v.push_back(1000);
  ASSERT_TRUE(bs::supported_percentile(v, 99).has_value());
  EXPECT_EQ(*bs::supported_percentile(v, 99), 990);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(bs::supported_percentile(small, 50).has_value());
  small.push_back(2.0);
  EXPECT_TRUE(bs::supported_percentile(small, 50).has_value());
  EXPECT_FALSE(bs::supported_percentile({}, 50).has_value());
}

TEST(BenchmarkStats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(data, n=4).
  const bs::Quartiles a = bs::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const bs::Quartiles b = bs::quartiles({3, 1, 4, 1, 5, 9, 2});
  EXPECT_DOUBLE_EQ(b.q1, 1);
  EXPECT_DOUBLE_EQ(b.q2, 3);
  EXPECT_DOUBLE_EQ(b.q3, 5);
  const bs::Quartiles c = bs::quartiles({1, 2});
  EXPECT_DOUBLE_EQ(c.q1, 0.75);
  EXPECT_DOUBLE_EQ(c.q2, 1.5);
  EXPECT_DOUBLE_EQ(c.q3, 2.25);
  EXPECT_THROW(bs::quartiles({1}), std::invalid_argument);
}

TEST(BenchmarkStats, PoissonScheduleReproducesFromSeed) {
  const std::vector<double> a = bs::poisson_schedule(42, 100.0, 100.0);
  const std::vector<double> b = bs::poisson_schedule(42, 100.0, 100.0);
  EXPECT_EQ(a, b);  // bit for bit
  EXPECT_NE(a, bs::poisson_schedule(43, 100.0, 100.0));
  ASSERT_FALSE(a.empty());
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 100.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  // 10 000 expected arrivals; ±5% is over 5 standard deviations.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
}

TEST(BenchmarkStats, StagePassRule) {
  std::vector<double> latencies(100, 10.0);
  EXPECT_TRUE(bs::stage_passes(latencies, 0, 0.5));
  // p90 exactly at the limit passes; above it fails.
  for (int i = 0; i < 90; ++i) latencies[i] = 100.0;
  EXPECT_TRUE(bs::stage_passes(latencies, 0, 0.5));
  latencies.assign(100, 10.0);
  for (int i = 0; i < 11; ++i) latencies[i] = 150.0;
  EXPECT_FALSE(bs::stage_passes(latencies, 0, 0.5));
  latencies.assign(100, 10.0);
  EXPECT_FALSE(bs::stage_passes(latencies, 1, 0.5));  // a job unfinished
  EXPECT_FALSE(bs::stage_passes(latencies, 0, 2.5));  // backlog drained late
  EXPECT_FALSE(bs::stage_passes({}, 0, 0.5));
}
