#include "numeric/statistics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "numeric/special_functions.h"

namespace zonestream::numeric {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::fmin(min_, x);
    max_ = std::fmax(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::fmin(min_, other.min_);
  max_ = std::fmax(max_, other.max_);
}

RunningStatsState RunningStats::ExportState() const {
  RunningStatsState state;
  state.count = count_;
  state.mean = mean_;
  state.m2 = m2_;
  state.min = min_;
  state.max = max_;
  return state;
}

void RunningStats::ImportState(const RunningStatsState& state) {
  count_ = state.count;
  mean_ = state.mean;
  m2_ = state.m2;
  min_ = state.min;
  max_ = state.max;
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  if (count_ < 1) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  ZS_CHECK_GT(count_, 0);
  return min_;
}

double RunningStats::max() const {
  ZS_CHECK_GT(count_, 0);
  return max_;
}

double Percentile(std::vector<double> values, double q) {
  ZS_CHECK(!values.empty());
  ZS_CHECK_GE(q, 0.0);
  ZS_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

ProportionInterval WilsonInterval(int64_t successes, int64_t trials,
                                  double confidence) {
  return WilsonIntervalReal(static_cast<double>(successes),
                            static_cast<double>(trials), confidence);
}

ProportionInterval WilsonIntervalReal(double successes, double trials,
                                      double confidence) {
  ZS_CHECK_GE(successes, 0.0);
  ZS_CHECK_GE(trials, successes);
  ZS_CHECK_GT(trials, 0.0);
  ZS_CHECK_GT(confidence, 0.0);
  ZS_CHECK_LT(confidence, 1.0);
  const double z = NormalQuantile(0.5 + 0.5 * confidence);
  const double n = trials;
  const double p = successes / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double spread =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  ProportionInterval interval;
  interval.point = p;
  interval.lower = std::fmax(0.0, center - spread);
  interval.upper = std::fmin(1.0, center + spread);
  return interval;
}

ProportionInterval ClusteredProportionInterval(double mean_fraction,
                                               double fraction_sample_variance,
                                               int64_t clusters,
                                               int64_t cluster_size,
                                               double confidence) {
  ZS_CHECK_GT(clusters, 0);
  ZS_CHECK_GT(cluster_size, 0);
  ZS_CHECK_GE(mean_fraction, 0.0);
  ZS_CHECK_LE(mean_fraction, 1.0);
  ZS_CHECK_GE(fraction_sample_variance, 0.0);
  const double p = mean_fraction;
  const double total =
      static_cast<double>(clusters) * static_cast<double>(cluster_size);
  // Degenerate fractions carry no usable between-cluster variance; assume
  // full within-cluster correlation (one effective trial per cluster).
  double deff = static_cast<double>(cluster_size);
  if (p > 0.0 && p < 1.0 && fraction_sample_variance > 0.0) {
    const double independent_var = p * (1.0 - p) / total;
    const double cluster_var =
        fraction_sample_variance / static_cast<double>(clusters);
    deff = cluster_var / independent_var;
    // Never report a tighter interval than the pooled one would: negative
    // within-cluster correlation is not distinguishable from sampling
    // noise at realistic cluster counts.
    deff = std::clamp(deff, 1.0, static_cast<double>(cluster_size));
  }
  const double effective_trials = std::fmax(1.0, total / deff);
  ProportionInterval interval =
      WilsonIntervalReal(p * effective_trials, effective_trials, confidence);
  // Keep the point estimate exact (the Wilson point is p by construction,
  // but restate it to be independent of rounding in the scaling above).
  interval.point = p;
  return interval;
}

ProportionInterval ClusteredProportionInterval(
    const std::vector<int64_t>& successes_per_cluster, int64_t cluster_size,
    double confidence) {
  ZS_CHECK(!successes_per_cluster.empty());
  ZS_CHECK_GT(cluster_size, 0);
  RunningStats fractions;
  for (int64_t successes : successes_per_cluster) {
    ZS_CHECK_GE(successes, 0);
    ZS_CHECK_LE(successes, cluster_size);
    fractions.Add(static_cast<double>(successes) /
                  static_cast<double>(cluster_size));
  }
  return ClusteredProportionInterval(
      fractions.mean(), fractions.sample_variance(),
      static_cast<int64_t>(successes_per_cluster.size()), cluster_size,
      confidence);
}

double KolmogorovSmirnovStatistic(std::vector<double> samples,
                                  const std::function<double(double)>& cdf) {
  ZS_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    // Empirical CDF jumps from i/n to (i+1)/n at the i-th order statistic.
    d = std::fmax(d, std::fabs(f - static_cast<double>(i) / n));
    d = std::fmax(d, std::fabs(static_cast<double>(i + 1) / n - f));
  }
  return d;
}

double KolmogorovSmirnovCriticalValue(int64_t n, double alpha) {
  ZS_CHECK_GT(n, 0);
  ZS_CHECK_GT(alpha, 0.0);
  ZS_CHECK_LT(alpha, 1.0);
  return std::sqrt(-std::log(alpha / 2.0) / 2.0) /
         std::sqrt(static_cast<double>(n));
}

}  // namespace zonestream::numeric
