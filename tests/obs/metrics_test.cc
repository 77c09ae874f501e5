#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace zonestream::obs {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
  gauge.Add(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.25);
}

TEST(GaugeTest, ConcurrentAddsAreLossless) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram histogram;
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 0.0);
}

TEST(HistogramTest, MeanIsExact) {
  // The acceptance criterion for the exporters: mean == sum/count exactly,
  // unaffected by the log bucketing.
  Histogram histogram;
  double sum = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    const double value = 1e-4 * i + 1e-7;
    histogram.Record(value);
    sum += value;
  }
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1000);
  EXPECT_DOUBLE_EQ(snapshot.sum, sum);
  EXPECT_DOUBLE_EQ(snapshot.mean(), sum / 1000.0);
}

TEST(HistogramTest, MinMaxAreExact) {
  Histogram histogram;
  histogram.Record(0.25);
  histogram.Record(7.0);
  histogram.Record(0.003);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.min, 0.003);
  EXPECT_DOUBLE_EQ(snapshot.max, 7.0);
}

TEST(HistogramTest, QuantilesWithinBucketResolution) {
  // 1..1000 ms uniformly: p50 ~ 0.5 s, p95 ~ 0.95 s, p99 ~ 0.99 s, with
  // <= ~9% relative error from the 8-buckets-per-octave resolution.
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i * 1e-3);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_NEAR(snapshot.p50, 0.5, 0.5 * 0.10);
  EXPECT_NEAR(snapshot.p95, 0.95, 0.95 * 0.10);
  EXPECT_NEAR(snapshot.p99, 0.99, 0.99 * 0.10);
  EXPECT_LE(snapshot.p50, snapshot.p95);
  EXPECT_LE(snapshot.p95, snapshot.p99);
  EXPECT_LE(snapshot.p99, snapshot.max);
}

TEST(HistogramTest, QuantileOfSingleValueIsThatValue) {
  Histogram histogram;
  histogram.Record(0.125);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  // Quantiles clamp into [min, max], so a single observation reports
  // itself exactly.
  EXPECT_DOUBLE_EQ(snapshot.p50, 0.125);
  EXPECT_DOUBLE_EQ(snapshot.p99, 0.125);
}

TEST(HistogramTest, HandlesOutOfRangeAndNonPositiveValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Histogram histogram;
  histogram.Record(0.0);     // underflow bucket
  histogram.Record(-3.0);    // underflow bucket
  histogram.Record(1e-12);   // below kMinValue: clamps to first bucket
  histogram.Record(1e9);     // above kMaxValue: clamps to last bucket
  histogram.Record(kInf);    // so does +inf
  const HistogramState state = histogram.ExportState();
  EXPECT_EQ(state.buckets[0], 2);
  EXPECT_EQ(state.buckets[1], 1);
  EXPECT_EQ(state.buckets[Histogram::kNumBuckets - 1], 2);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 5);
  EXPECT_DOUBLE_EQ(snapshot.min, -3.0);
  EXPECT_EQ(snapshot.max, kInf);
}

TEST(HistogramTest, BucketBoundsAreMonotone) {
  for (int i = 2; i < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketLowerBound(i - 1),
              Histogram::BucketLowerBound(i));
  }
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(1), Histogram::kMinValue);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Record(1e-3);
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kPerThread);
  // The running sum accumulates fp roundoff over 40k additions; the mean
  // is sum/count, not re-derived from buckets.
  EXPECT_NEAR(snapshot.mean(), 1e-3, 1e-12);
}

TEST(HistogramTest, BucketIndexForMirrorsRecordGeometry) {
  EXPECT_EQ(Histogram::BucketIndexFor(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndexFor(-1.0), 0);
  EXPECT_EQ(Histogram::BucketIndexFor(
                std::numeric_limits<double>::quiet_NaN()),
            0);
  EXPECT_EQ(Histogram::BucketIndexFor(1e-12), 1);  // below kMinValue clamps
  EXPECT_EQ(Histogram::BucketIndexFor(Histogram::kMinValue), 1);
  // Above kMaxValue clamps, including values whose ratio to kMinValue
  // overflows and +inf itself.
  for (double huge : {1e9, 1e300, std::numeric_limits<double>::max(),
                      std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(Histogram::BucketIndexFor(huge), Histogram::kNumBuckets - 1)
        << huge;
  }
  // Every bucket's lower edge maps into that bucket, and one ulp short
  // of the next edge stays in it.
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    const double lo = Histogram::BucketLowerBound(i);
    const int at_edge = Histogram::BucketIndexFor(lo);
    // Edges are computed through exp2/log2; allow the index to land on
    // the edge bucket or its predecessor at the boundary, never further.
    EXPECT_GE(at_edge, i - 1) << i;
    EXPECT_LE(at_edge, i) << i;
    if (i + 1 < Histogram::kNumBuckets) {
      const double below_next =
          std::nextafter(Histogram::BucketLowerBound(i + 1), 0.0);
      EXPECT_GE(Histogram::BucketIndexFor(below_next), i) << i;
      EXPECT_LE(Histogram::BucketIndexFor(below_next), i + 1) << i;
    }
  }
  // Record counts each value in the bucket BucketIndexFor names.
  for (double value : {1e-8, 3e-6, 1e-4, 0.02, 0.5, 7.0, 900.0, 1e300}) {
    Histogram histogram;
    histogram.Record(value);
    EXPECT_EQ(histogram.ExportState().buckets[Histogram::BucketIndexFor(value)],
              1)
        << value;
  }
}

TEST(HistogramTest, ExtremesIgnoreNaNAndKeepTheFirstOfEqualValues) {
  // An extreme moves only on a strict improvement, so of -0.0 and +0.0
  // the first one recorded stays, and NaN never becomes an extreme unless
  // nothing else was recorded.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    std::vector<double> values;
    double min;
    double max;
  };
  const std::vector<Case> cases = {
      {{0.0, -0.0, 1.0}, 0.0, 1.0},
      {{-0.0, 0.0, -1.0}, -1.0, -0.0},
      {{kNaN, 2.0, kNaN, 0.5}, 0.5, 2.0},
      {{3.0, kNaN, 3.0, -0.0}, -0.0, 3.0},
  };
  for (const Case& c : cases) {
    Histogram histogram;
    for (double value : c.values) histogram.Record(value);
    const HistogramState state = histogram.ExportState();
    EXPECT_EQ(state.min, c.min);
    EXPECT_EQ(state.max, c.max);
    EXPECT_EQ(std::signbit(state.min), std::signbit(c.min));
    EXPECT_EQ(std::signbit(state.max), std::signbit(c.max));
  }
  Histogram only_nan;
  only_nan.Record(kNaN);
  only_nan.Record(kNaN);
  const HistogramState state = only_nan.ExportState();
  EXPECT_EQ(state.count, 2);
  EXPECT_TRUE(std::isnan(state.min));
  EXPECT_TRUE(std::isnan(state.max));
}

TEST(HistogramTest, RecordAfterRestoringAnEmptyStateStartsFresh) {
  Histogram empty;
  const HistogramState state = empty.ExportState();
  EXPECT_EQ(state.count, 0);
  EXPECT_EQ(state.sum, 0.0);
  EXPECT_EQ(state.min, 0.0);
  EXPECT_EQ(state.max, 0.0);

  // The restored zeros are placeholders, not extremes: the next record
  // sets both, even on a histogram that held other values before.
  Histogram histogram;
  histogram.Record(0.5);
  histogram.Record(9.0);
  ASSERT_TRUE(histogram.ImportState(state).ok());
  histogram.Record(2.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1);
  EXPECT_EQ(snapshot.min, 2.0);
  EXPECT_EQ(snapshot.max, 2.0);
}

TEST(HistogramTest, SnapshotsDuringConcurrentRecordsAreSelfConsistent) {
  // Writers record multiples of 2^-10, so every partial sum is exact in
  // any order, while a reader exports. Each export must count exactly
  // its buckets and keep min <= p50 <= p99 <= max.
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 20000;
  constexpr int kSteps = 4096;  // values 2^-10 .. 4
  constexpr double kStep = 1.0 / 1024.0;
  Histogram histogram;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&histogram, &writers_done, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        histogram.Record(((i * kWriters + t) % kSteps + 1) * kStep);
      }
      writers_done.fetch_add(1);
    });
  }
  int64_t exports = 0;
  int64_t inconsistent = 0;
  bool last = false;
  while (!last) {
    last = writers_done.load() == kWriters;
    const HistogramState state = histogram.ExportState();
    int64_t total = 0;
    for (int64_t bucket : state.buckets) total += bucket;
    const HistogramSnapshot snapshot = state.Summary();
    const bool ok = state.count == total && snapshot.min <= snapshot.p50 &&
                    snapshot.p50 <= snapshot.p99 &&
                    snapshot.p99 <= snapshot.max;
    if (!ok) ++inconsistent;
    ++exports;
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(inconsistent, 0) << "of " << exports << " exports";

  // Once quiet, the histogram is exact.
  double sum = 0.0;
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kPerWriter; ++i) {
      sum += ((i * kWriters + t) % kSteps + 1) * kStep;
    }
  }
  const HistogramState state = histogram.ExportState();
  EXPECT_EQ(state.count, kWriters * kPerWriter);
  EXPECT_EQ(state.sum, sum);
  EXPECT_EQ(state.min, kStep);
  EXPECT_EQ(state.max, kSteps * kStep);
}

TEST(RegistryTest, ValidatesNames) {
  EXPECT_TRUE(Registry::IsValidName("sim.rounds"));
  EXPECT_TRUE(Registry::IsValidName("a"));
  EXPECT_TRUE(Registry::IsValidName("sim.zone_hits.12"));
  EXPECT_FALSE(Registry::IsValidName(""));
  EXPECT_FALSE(Registry::IsValidName("."));
  EXPECT_FALSE(Registry::IsValidName("sim."));
  EXPECT_FALSE(Registry::IsValidName(".sim"));
  EXPECT_FALSE(Registry::IsValidName("sim..rounds"));
  EXPECT_FALSE(Registry::IsValidName("Sim.rounds"));   // no upper case
  EXPECT_FALSE(Registry::IsValidName("sim rounds"));   // no spaces
  EXPECT_FALSE(Registry::IsValidName("sim-rounds"));   // no dashes
}

TEST(RegistryTest, GetReturnsStablePointers) {
  Registry registry;
  Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(registry.GetCounter("test.counter"), counter);
  counter->Increment(5);
  EXPECT_EQ(registry.GetCounter("test.counter")->value(), 5);

  Histogram* histogram = registry.GetHistogram("test.latency_s");
  EXPECT_EQ(registry.GetHistogram("test.latency_s"), histogram);
  Gauge* gauge = registry.GetGauge("test.depth");
  EXPECT_EQ(registry.GetGauge("test.depth"), gauge);
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.GetCounter("b.count")->Increment(2);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("a.gauge")->Set(0.5);
  registry.GetHistogram("a.hist")->Record(1.0);

  const RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.count");
  EXPECT_EQ(snapshot.counters[0].second, 1);
  EXPECT_EQ(snapshot.counters[1].first, "b.count");
  EXPECT_EQ(snapshot.counters[1].second, 2);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 0.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1);
}

TEST(RegistryTest, ConcurrentGetAndUseIsSafe) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared.counter")->Increment();
        registry.GetHistogram("shared.hist")->Record(1e-3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared.counter")->value(), kThreads * 1000);
  EXPECT_EQ(registry.GetHistogram("shared.hist")->count(), kThreads * 1000);
}

}  // namespace
}  // namespace zonestream::obs
