#include "numeric/statistics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numeric/random.h"
#include "numeric/special_functions.h"

#include <gtest/gtest.h>

namespace zonestream::numeric {
namespace {

TEST(RunningStatsTest, SmallKnownSample) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);           // population
  EXPECT_NEAR(stats.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sample_variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats sequential;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0 + i * 0.01;
    sequential.Add(x);
    (i < 37 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), sequential.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), sequential.min());
  EXPECT_DOUBLE_EQ(left.max(), sequential.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffset) {
  // Classic catastrophic-cancellation scenario for naive sum-of-squares.
  RunningStats stats;
  const double offset = 1e9;
  for (double x : {offset + 1.0, offset + 2.0, offset + 3.0}) stats.Add(x);
  EXPECT_NEAR(stats.variance(), 2.0 / 3.0, 1e-6);
}

TEST(PercentileTest, Endpoints) {
  std::vector<double> values = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 3.0);
}

TEST(PercentileTest, LinearInterpolation) {
  std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 9.0);
}

TEST(WilsonIntervalTest, ContainsPointEstimate) {
  const ProportionInterval interval = WilsonInterval(30, 1000);
  EXPECT_DOUBLE_EQ(interval.point, 0.03);
  EXPECT_LT(interval.lower, 0.03);
  EXPECT_GT(interval.upper, 0.03);
}

TEST(WilsonIntervalTest, ZeroSuccessesHasPositiveUpper) {
  const ProportionInterval interval = WilsonInterval(0, 1000);
  EXPECT_DOUBLE_EQ(interval.point, 0.0);
  EXPECT_DOUBLE_EQ(interval.lower, 0.0);
  EXPECT_GT(interval.upper, 0.0);
  EXPECT_LT(interval.upper, 0.01);
}

TEST(WilsonIntervalTest, AllSuccesses) {
  const ProportionInterval interval = WilsonInterval(50, 50);
  EXPECT_DOUBLE_EQ(interval.point, 1.0);
  EXPECT_LT(interval.lower, 1.0);
  EXPECT_DOUBLE_EQ(interval.upper, 1.0);
}

TEST(WilsonIntervalTest, WidthShrinksWithSamples) {
  const ProportionInterval small = WilsonInterval(10, 100);
  const ProportionInterval large = WilsonInterval(1000, 10000);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(WilsonIntervalTest, KnownValue95) {
  // Standard check: 50/100 at 95% -> approximately [0.404, 0.596].
  const ProportionInterval interval = WilsonInterval(50, 100, 0.95);
  EXPECT_NEAR(interval.lower, 0.4038, 5e-4);
  EXPECT_NEAR(interval.upper, 0.5962, 5e-4);
}

TEST(KolmogorovSmirnovTest, PerfectFitHasSmallStatistic) {
  // Uniform grid points against the uniform CDF: D = 1/(2n) exactly at
  // midpoints; use exact quantile positions i/(n+1).
  std::vector<double> samples;
  const int n = 1000;
  for (int i = 1; i <= n; ++i) {
    samples.push_back(static_cast<double>(i) / (n + 1));
  }
  const double d = KolmogorovSmirnovStatistic(
      samples, [](double x) { return x; });
  EXPECT_LT(d, 2.0 / n);
}

TEST(KolmogorovSmirnovTest, DetectsWrongDistribution) {
  // Samples from U(0,1) tested against U(0,2): D ~ 0.5.
  std::vector<double> samples;
  for (int i = 1; i <= 500; ++i) samples.push_back(i / 501.0);
  const double d = KolmogorovSmirnovStatistic(
      samples, [](double x) { return x / 2.0; });
  EXPECT_GT(d, 0.4);
}

TEST(KolmogorovSmirnovTest, CriticalValueShrinksWithSamples) {
  EXPECT_GT(KolmogorovSmirnovCriticalValue(100, 0.01),
            KolmogorovSmirnovCriticalValue(10000, 0.01));
  // Known constant: c(0.05) = 1.3581, so at n = 100 the value is 0.13581.
  EXPECT_NEAR(KolmogorovSmirnovCriticalValue(100, 0.05), 0.13581, 1e-4);
}

TEST(KolmogorovSmirnovTest, GammaSamplerPassesAgainstItsOwnCdf) {
  // End-to-end statistical check: the std::gamma_distribution-based
  // sampler must pass a KS test against our RegularizedGammaP-based CDF
  // at the 1% level. This cross-validates sampler, CDF and the KS
  // machinery jointly.
  Rng rng(2024);
  const double shape = 4.0;
  const double scale = 50e3;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Gamma(shape, scale));
  const double d = KolmogorovSmirnovStatistic(
      std::move(samples), [shape, scale](double x) {
        return x <= 0.0 ? 0.0 : RegularizedGammaP(shape, x / scale);
      });
  EXPECT_LT(d, KolmogorovSmirnovCriticalValue(20000, 0.01));
}

TEST(WilsonIntervalRealTest, MatchesIntegerWilsonOnIntegerInputs) {
  const ProportionInterval integer = WilsonInterval(7, 50);
  const ProportionInterval real = WilsonIntervalReal(7.0, 50.0);
  EXPECT_DOUBLE_EQ(real.point, integer.point);
  EXPECT_DOUBLE_EQ(real.lower, integer.lower);
  EXPECT_DOUBLE_EQ(real.upper, integer.upper);
}

TEST(WilsonIntervalRealTest, SmallerEffectiveSampleWidensInterval) {
  // Same proportion at a tenth of the sample size: the interval must be
  // wider — this is the mechanism the cluster-robust estimator relies on.
  const ProportionInterval full = WilsonIntervalReal(50.0, 500.0);
  const ProportionInterval tenth = WilsonIntervalReal(5.0, 50.0);
  EXPECT_DOUBLE_EQ(full.point, tenth.point);
  EXPECT_GT(tenth.upper - tenth.lower, full.upper - full.lower);
}

TEST(ClusteredProportionIntervalTest, IndependentClustersMatchWilson) {
  // When the between-cluster variance equals the binomial variance
  // (independent trials), deff ~ 1 and the clustered interval collapses
  // to the pooled Wilson interval.
  const double p = 0.2;
  const int64_t clusters = 1000;
  const int64_t cluster_size = 10;
  // Binomial per-cluster fraction variance: p(1-p)/cluster_size.
  const double variance = p * (1.0 - p) / static_cast<double>(cluster_size);
  const ProportionInterval clustered =
      ClusteredProportionInterval(p, variance, clusters, cluster_size);
  const ProportionInterval pooled = WilsonIntervalReal(
      p * clusters * cluster_size, clusters * cluster_size);
  EXPECT_NEAR(clustered.lower, pooled.lower, 1e-9);
  EXPECT_NEAR(clustered.upper, pooled.upper, 1e-9);
}

TEST(ClusteredProportionIntervalTest, PerfectCorrelationWidensToClusterLevel) {
  // All-or-nothing clusters (every trial in a cluster agrees): the
  // effective sample is the number of clusters, not of trials.
  std::vector<int64_t> successes;
  for (int c = 0; c < 100; ++c) successes.push_back(c < 20 ? 50 : 0);
  const ProportionInterval clustered =
      ClusteredProportionInterval(successes, /*cluster_size=*/50);
  const ProportionInterval cluster_level = WilsonInterval(20, 100);
  const ProportionInterval pooled = WilsonInterval(20 * 50, 100 * 50);
  EXPECT_DOUBLE_EQ(clustered.point, 0.2);
  // Much wider than pooled, about as wide as the cluster-level interval.
  EXPECT_GT(clustered.upper - clustered.lower,
            3.0 * (pooled.upper - pooled.lower));
  EXPECT_NEAR(clustered.upper - clustered.lower,
              cluster_level.upper - cluster_level.lower,
              0.2 * (cluster_level.upper - cluster_level.lower));
}

TEST(ClusteredProportionIntervalTest, NeverNarrowerThanPooled) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t clusters = 50 + 10 * trial;
    const int64_t cluster_size = 1 + trial % 7;
    std::vector<int64_t> successes;
    int64_t total = 0;
    for (int64_t c = 0; c < clusters; ++c) {
      const auto s = static_cast<int64_t>(rng.Uniform01() * (cluster_size + 1));
      successes.push_back(std::min(s, cluster_size));
      total += successes.back();
    }
    const ProportionInterval clustered =
        ClusteredProportionInterval(successes, cluster_size);
    const ProportionInterval pooled =
        WilsonInterval(total, clusters * cluster_size);
    EXPECT_GE(clustered.upper - clustered.lower,
              (pooled.upper - pooled.lower) * (1.0 - 1e-9))
        << "trial " << trial;
    EXPECT_LE(clustered.lower, clustered.point);
    EXPECT_GE(clustered.upper, clustered.point);
  }
}

TEST(ClusteredProportionIntervalTest, DegenerateAllZeroFallsBackConservative) {
  // p = 0 has zero between-cluster variance; the estimator must fall back
  // to one effective trial per cluster, not claim the pooled precision.
  std::vector<int64_t> none(200, 0);
  const ProportionInterval clustered =
      ClusteredProportionInterval(none, /*cluster_size=*/30);
  const ProportionInterval cluster_level = WilsonInterval(0, 200);
  EXPECT_DOUBLE_EQ(clustered.point, 0.0);
  EXPECT_NEAR(clustered.upper, cluster_level.upper, 1e-12);
}

TEST(ClusteredProportionIntervalTest, DegenerateAllOnesFallsBackConservative) {
  std::vector<int64_t> all(200, 30);
  const ProportionInterval clustered =
      ClusteredProportionInterval(all, /*cluster_size=*/30);
  const ProportionInterval cluster_level = WilsonInterval(200, 200);
  EXPECT_DOUBLE_EQ(clustered.point, 1.0);
  EXPECT_NEAR(clustered.lower, cluster_level.lower, 1e-12);
}

TEST(ClusteredProportionIntervalTest, OverloadsAgree) {
  std::vector<int64_t> successes = {3, 0, 5, 2, 2, 4, 1, 0, 3, 5};
  const int64_t cluster_size = 5;
  RunningStats fractions;
  for (int64_t s : successes) {
    fractions.Add(static_cast<double>(s) / static_cast<double>(cluster_size));
  }
  const ProportionInterval from_vector =
      ClusteredProportionInterval(successes, cluster_size);
  const ProportionInterval from_moments = ClusteredProportionInterval(
      fractions.mean(), fractions.sample_variance(),
      static_cast<int64_t>(successes.size()), cluster_size);
  EXPECT_DOUBLE_EQ(from_vector.point, from_moments.point);
  EXPECT_DOUBLE_EQ(from_vector.lower, from_moments.lower);
  EXPECT_DOUBLE_EQ(from_vector.upper, from_moments.upper);
}

}  // namespace
}  // namespace zonestream::numeric
