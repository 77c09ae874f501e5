// Lightweight, thread-safe runtime metrics for the serving/validation
// stack: counters, gauges, log-bucketed latency histograms, and a
// hierarchical Registry that owns them.
//
// Design constraints, in order:
//   1. Hot-path cost must be negligible next to a simulated round
//      (~microseconds): Counter/Gauge are single relaxed atomics and
//      Histogram::Record is a few lock-free atomics (no mutex), so hot
//      paths record into the registry's histograms directly.
//   2. Everything is observable while the workload is still running:
//      Snapshot() is consistent per metric (not across metrics), which is
//      all the exporters need. A histogram read while it is being
//      written counts a record only once that record's min, max and sum
//      are visible (see Histogram::Record).
//   3. Instrumented code takes non-owning `Registry*` pointers and treats
//      null as "observability disabled", so the simulators and servers pay
//      nothing when nobody is watching.
//
// Metric names are hierarchical dot-paths ("sim.round.service_time_s");
// the exporters (obs/export.h) group on the first component.
#ifndef ZONESTREAM_OBS_METRICS_H_
#define ZONESTREAM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace zonestream::obs {

// Monotonic event count. Thread-safe; relaxed ordering (metrics are
// advisory, never synchronization).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  // Checkpoint restore only: overwrites the count. Not for hot paths.
  void RestoreValue(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins instantaneous value (queue depth, active streams).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Point-in-time view of a Histogram.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;  // exact running sum, so sum/count is the exact mean
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

// Exact state of one Histogram, for checkpoint/restore. Unlike
// HistogramSnapshot (whose quantiles are derived and lossy), this carries
// the raw bucket counts, so restoring it reproduces every future
// Snapshot() bit-identically. Buckets are run-length friendly via the
// sparse (index, count) encoding used by the snapshot codec; in memory
// the vector is dense with Histogram::kNumBuckets entries.
struct HistogramState {
  std::vector<int64_t> buckets;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  // The q-quantile, interpolated linearly inside its bucket and clamped
  // into [min, max]; 0 when empty.
  double Quantile(double q) const;
  // count, sum, min, max and the p50/p95/p99 quantiles.
  HistogramSnapshot Summary() const;
};

// Log-bucketed histogram for positive durations/sizes. Bucket boundaries
// grow geometrically (kBucketsPerOctave buckets per power of two), giving
// <= ~9% relative quantile error over [kMinValue, kMaxValue); values at or
// below zero (and NaN) land in a dedicated underflow bucket and
// out-of-range values clamp into the edge buckets. The exact sum/min/max
// are tracked alongside the buckets, so mean() is exact even though
// quantiles are bucketed. Lock-free: Record and the readers are relaxed
// atomics plus one release/acquire pair on the bucket counts.
class Histogram {
 public:
  static constexpr int kBucketsPerOctave = 8;
  static constexpr double kMinValue = 1e-9;  // 1 ns
  static constexpr double kMaxValue = 1e5;   // ~28 h
  static constexpr int kOctaves = 47;        // covers [1e-9, ~1.4e5)
  static constexpr int kNumBuckets = kOctaves * kBucketsPerOctave + 1;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Records one observation. Thread-safe, lock-free.
  void Record(double value);

  // ExportState().Summary(): interpolated p50/p95/p99. Thread-safe.
  HistogramSnapshot Snapshot() const;

  // Sum of the bucket counts.
  int64_t count() const;

  // Exact bucket-level state capture/restore. `count` is the sum of the
  // exported buckets, and an empty histogram exports min = max = 0.
  // ImportState rejects a wrong-size bucket vector, negative counts, or a
  // total that does not match `count`; it is for restoring a histogram
  // nobody is recording into. Thread-safe.
  HistogramState ExportState() const;
  common::Status ImportState(const HistogramState& state);

  // Lower edge of bucket `i` (i >= 1; bucket 0 is the underflow bucket).
  static double BucketLowerBound(int i);

  // The bucket `value` lands in: a pure function of the class constants.
  static int BucketIndexFor(double value);

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  // Sentinels, so the first Record sets both extremes.
  std::atomic<double> min_{kInf};
  std::atomic<double> max_{-kInf};
};

// Point-in-time view of every metric in a Registry, sorted by name.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// Exact state of a whole Registry, for checkpoint/restore. Same shape as
// RegistrySnapshot but with lossless histograms.
struct RegistryState {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramState>> histograms;
};

// Owns metrics keyed by hierarchical dot-path names. Get*() registers on
// first use and returns a pointer that stays valid for the Registry's
// lifetime, so instrumented code resolves each metric once and then works
// lock-free. A name can hold exactly one metric kind; requesting it as
// another kind is a programming error (ZS_CHECK). Thread-safe.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Valid names are non-empty dot-separated paths of [a-z0-9_] segments.
  static bool IsValidName(const std::string& name);

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // ExportState() with every histogram summarized.
  RegistrySnapshot Snapshot() const;

  // Checkpoint support. ExportState is a lossless Snapshot; ImportState
  // registers any missing metrics and overwrites the values of existing
  // ones (metrics present in the registry but absent from the state are
  // left untouched — the caller restores into a freshly instrumented
  // registry, where handles already exist at their zero values). Fails
  // without side effects on an invalid name or a name already registered
  // as a different metric kind; fails per-histogram on malformed bucket
  // state.
  RegistryState ExportState() const;
  common::Status ImportState(const RegistryState& state);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace zonestream::obs

#endif  // ZONESTREAM_OBS_METRICS_H_
