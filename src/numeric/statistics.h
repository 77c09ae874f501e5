// Streaming and batch statistics for the simulator: Welford running moments,
// percentiles, Kolmogorov-Smirnov distances, and binomial-proportion
// confidence intervals (used when comparing simulated glitch rates to
// analytic bounds).
#ifndef ZONESTREAM_NUMERIC_STATISTICS_H_
#define ZONESTREAM_NUMERIC_STATISTICS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace zonestream::numeric {

// Raw accumulator fields of a RunningStats, for exact checkpoint /
// restore (mean/m2 are the Welford internals, not derived statistics).
struct RunningStatsState {
  int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  RunningStats() = default;

  // Adds one observation.
  void Add(double x);

  // Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

  // Exact state capture/restore; ImportState(ExportState()) is the
  // identity and continued Add() sequences stay bit-identical.
  RunningStatsState ExportState() const;
  void ImportState(const RunningStatsState& state);

  int64_t count() const { return count_; }
  double mean() const;
  // Population variance (divides by n). Returns 0 for n < 1.
  double variance() const;
  // Sample variance (divides by n-1). Returns 0 for n < 2.
  double sample_variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Returns the q-quantile (q in [0, 1]) of `values` using linear
// interpolation between order statistics. Sorts a copy; O(n log n).
double Percentile(std::vector<double> values, double q);

// Two-sided Wilson score interval for a binomial proportion, given
// `successes` out of `trials` at confidence level `confidence` (e.g. 0.95).
struct ProportionInterval {
  double point = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};
ProportionInterval WilsonInterval(int64_t successes, int64_t trials,
                                  double confidence = 0.95);

// Wilson interval with real-valued (effective) counts — the building
// block for design-effect-adjusted intervals over correlated samples.
// Requires 0 <= successes <= trials and trials > 0.
ProportionInterval WilsonIntervalReal(double successes, double trials,
                                      double confidence = 0.95);

// Cluster-robust confidence interval for a proportion observed as
// `clusters` equal-size groups of `cluster_size` correlated trials each
// (e.g. per-stream glitch indicators grouped by simulated round: one
// overrunning sweep glitches many streams at once, so the per-event
// Wilson interval is overconfident).
//
// The estimator treats the per-cluster success fractions as the i.i.d.
// sample. From their mean p and sample variance s2 it forms the design
// effect deff = (s2 / clusters) / (p (1-p) / (clusters * cluster_size)) —
// the ratio of the cluster-robust variance of p-hat to its
// independent-trials variance — clamps deff >= 1 (never tighter than the
// pooled interval), and returns a Wilson interval at the effective sample
// size n_eff = clusters * cluster_size / deff. Degenerate inputs (p = 0,
// p = 1, or zero between-cluster variance) fall back to the fully
// conservative deff = cluster_size, i.e. one effective trial per cluster.
//
// `mean_fraction` / `fraction_sample_variance` are the mean and sample
// (n-1) variance of the per-cluster fractions; the vector overload
// computes them from per-cluster success counts.
ProportionInterval ClusteredProportionInterval(double mean_fraction,
                                               double fraction_sample_variance,
                                               int64_t clusters,
                                               int64_t cluster_size,
                                               double confidence = 0.95);
ProportionInterval ClusteredProportionInterval(
    const std::vector<int64_t>& successes_per_cluster, int64_t cluster_size,
    double confidence = 0.95);

// One-sample Kolmogorov-Smirnov statistic D_n = sup_x |F_n(x) - F(x)|
// against the reference CDF `cdf`. Sorts a copy of `samples`.
double KolmogorovSmirnovStatistic(std::vector<double> samples,
                                  const std::function<double(double)>& cdf);

// Asymptotic critical value of the one-sample KS test at significance
// `alpha` (e.g. 0.01) for n samples: c(alpha)/sqrt(n) with
// c(alpha) = sqrt(-ln(alpha/2)/2). Valid for n >~ 35.
double KolmogorovSmirnovCriticalValue(int64_t n, double alpha);

}  // namespace zonestream::numeric

#endif  // ZONESTREAM_NUMERIC_STATISTICS_H_
