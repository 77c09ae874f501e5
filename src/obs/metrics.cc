#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace zonestream::obs {

static_assert(std::atomic<int64_t>::is_always_lock_free);
static_assert(std::atomic<double>::is_always_lock_free);

int Histogram::BucketIndexFor(double value) {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN land in the underflow bucket
  const double octaves = std::log2(value / kMinValue);
  if (octaves < 0.0) return 1;
  // +inf, and values whose ratio to kMinValue overflows to +inf, must
  // clamp before the cast: an out-of-range double-to-int is undefined.
  if (!(octaves < kOctaves)) return kNumBuckets - 1;
  return 1 + static_cast<int>(octaves * static_cast<double>(kBucketsPerOctave));
}

double Histogram::BucketLowerBound(int i) {
  ZS_CHECK_GE(i, 1);
  ZS_CHECK_LT(i, kNumBuckets);
  return kMinValue *
         std::exp2(static_cast<double>(i - 1) /
                   static_cast<double>(kBucketsPerOctave));
}

void Histogram::Record(double value) {
  // Extremes and sum first, the bucket last with release: a reader that
  // counts this record (ExportState acquires the buckets) also sees it in
  // min, max and sum. An extreme moves only on a strict improvement, so of
  // -0.0 and +0.0 the first recorded stays and NaN never becomes one.
  double current = min_.load(std::memory_order_relaxed);
  while (value < current &&
         !min_.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
  current = max_.load(std::memory_order_relaxed);
  while (value > current &&
         !max_.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
  current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
  buckets_[BucketIndexFor(value)].fetch_add(1, std::memory_order_release);
}

int64_t Histogram::count() const {
  int64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double HistogramState::Quantile(double q) const {
  if (count == 0) return 0.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count))));
  const int num_buckets = static_cast<int>(buckets.size());
  int64_t cumulative = 0;
  for (int i = 0; i < num_buckets; ++i) {
    if (buckets[i] == 0) continue;
    cumulative += buckets[i];
    if (cumulative < rank) continue;
    // Interpolate linearly inside the bucket, then clamp to the observed
    // extrema so quantiles never leave [min, max].
    double lo;
    double hi;
    if (i == 0) {
      lo = min;
      hi = std::fmin(max, 0.0);
    } else {
      lo = Histogram::BucketLowerBound(i);
      hi = i + 1 < num_buckets ? Histogram::BucketLowerBound(i + 1) : max;
    }
    const double within =
        static_cast<double>(buckets[i] - (cumulative - rank)) /
        static_cast<double>(buckets[i]);
    const double value = lo + (hi - lo) * within;
    return std::clamp(value, min, max);
  }
  return max;
}

HistogramSnapshot HistogramState::Summary() const {
  HistogramSnapshot snapshot;
  snapshot.count = count;
  snapshot.sum = sum;
  snapshot.min = min;
  snapshot.max = max;
  snapshot.p50 = Quantile(0.50);
  snapshot.p95 = Quantile(0.95);
  snapshot.p99 = Quantile(0.99);
  return snapshot;
}

HistogramSnapshot Histogram::Snapshot() const {
  return ExportState().Summary();
}

HistogramState Histogram::ExportState() const {
  HistogramState state;
  state.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    state.buckets[i] = buckets_[i].load(std::memory_order_acquire);
    state.count += state.buckets[i];
  }
  state.sum = sum_.load(std::memory_order_relaxed);
  state.min = min_.load(std::memory_order_relaxed);
  state.max = max_.load(std::memory_order_relaxed);
  if (state.count == 0) {
    state.min = 0.0;
    state.max = 0.0;
  } else if (!(state.min <= state.max)) {
    // Still the sentinels: every counted record was NaN.
    state.min = std::numeric_limits<double>::quiet_NaN();
    state.max = state.min;
  }
  return state;
}

common::Status Histogram::ImportState(const HistogramState& state) {
  if (state.buckets.size() != static_cast<size_t>(kNumBuckets)) {
    return common::Status::InvalidArgument(
        "histogram state has wrong bucket count");
  }
  int64_t total = 0;
  for (int64_t bucket : state.buckets) {
    if (bucket < 0) {
      return common::Status::InvalidArgument(
          "histogram state has a negative bucket count");
    }
    total += bucket;
  }
  if (total != state.count || state.count < 0) {
    return common::Status::InvalidArgument(
        "histogram state count disagrees with bucket totals");
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(state.buckets[i], std::memory_order_relaxed);
  }
  sum_.store(state.sum, std::memory_order_relaxed);
  // An empty state's zeros (and an all-NaN state's NaNs) are not extremes
  // of any value: re-arm the sentinels so the next Record sets both.
  const bool has_extremes = state.count > 0 && !std::isnan(state.min);
  min_.store(has_extremes ? state.min : kInf, std::memory_order_relaxed);
  max_.store(has_extremes ? state.max : -kInf, std::memory_order_relaxed);
  return common::Status::Ok();
}

bool Registry::IsValidName(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
      continue;
    }
    prev_dot = false;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

Counter* Registry::GetCounter(const std::string& name) {
  ZS_CHECK(IsValidName(name));
  std::lock_guard<std::mutex> lock(mutex_);
  ZS_CHECK(gauges_.find(name) == gauges_.end());
  ZS_CHECK(histograms_.find(name) == histograms_.end());
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  ZS_CHECK(IsValidName(name));
  std::lock_guard<std::mutex> lock(mutex_);
  ZS_CHECK(counters_.find(name) == counters_.end());
  ZS_CHECK(histograms_.find(name) == histograms_.end());
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  ZS_CHECK(IsValidName(name));
  std::lock_guard<std::mutex> lock(mutex_);
  ZS_CHECK(counters_.find(name) == counters_.end());
  ZS_CHECK(gauges_.find(name) == gauges_.end());
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

RegistrySnapshot Registry::Snapshot() const {
  RegistryState state = ExportState();
  RegistrySnapshot snapshot;
  snapshot.counters = std::move(state.counters);
  snapshot.gauges = std::move(state.gauges);
  snapshot.histograms.reserve(state.histograms.size());
  for (const auto& [name, histogram] : state.histograms) {
    snapshot.histograms.emplace_back(name, histogram.Summary());
  }
  return snapshot;
}

RegistryState Registry::ExportState() const {
  // Collect the stable metric pointers under the registry lock, then read
  // each metric with its own synchronization; std::map iteration already
  // yields names in sorted order.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      counters.emplace_back(name, counter.get());
    }
    gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      gauges.emplace_back(name, gauge.get());
    }
    histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      histograms.emplace_back(name, histogram.get());
    }
  }
  RegistryState state;
  state.counters.reserve(counters.size());
  for (const auto& [name, counter] : counters) {
    state.counters.emplace_back(name, counter->value());
  }
  state.gauges.reserve(gauges.size());
  for (const auto& [name, gauge] : gauges) {
    state.gauges.emplace_back(name, gauge->value());
  }
  state.histograms.reserve(histograms.size());
  for (const auto& [name, histogram] : histograms) {
    state.histograms.emplace_back(name, histogram->ExportState());
  }
  return state;
}

common::Status Registry::ImportState(const RegistryState& state) {
  // Validate every name and its kind before mutating anything, so a
  // corrupt state never half-restores the registry. (Get* ZS_CHECKs on a
  // kind conflict; restore must reject, not abort.)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, value] : state.counters) {
      (void)value;
      if (!IsValidName(name)) {
        return common::Status::InvalidArgument(
            "registry state has invalid counter name '" + name + "'");
      }
      if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
        return common::Status::InvalidArgument(
            "registry state counter '" + name +
            "' is already registered as another metric kind");
      }
    }
    for (const auto& [name, value] : state.gauges) {
      (void)value;
      if (!IsValidName(name)) {
        return common::Status::InvalidArgument(
            "registry state has invalid gauge name '" + name + "'");
      }
      if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
        return common::Status::InvalidArgument(
            "registry state gauge '" + name +
            "' is already registered as another metric kind");
      }
    }
    for (const auto& [name, histogram] : state.histograms) {
      (void)histogram;
      if (!IsValidName(name)) {
        return common::Status::InvalidArgument(
            "registry state has invalid histogram name '" + name + "'");
      }
      if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
        return common::Status::InvalidArgument(
            "registry state histogram '" + name +
            "' is already registered as another metric kind");
      }
    }
  }
  // Validate histogram payloads against a scratch instance before any
  // restore reaches a live metric.
  for (const auto& [name, histogram] : state.histograms) {
    Histogram scratch;
    if (auto status = scratch.ImportState(histogram); !status.ok()) {
      return common::Status::InvalidArgument("registry state histogram '" +
                                             name + "': " + status.message());
    }
  }
  for (const auto& [name, value] : state.counters) {
    GetCounter(name)->RestoreValue(value);
  }
  for (const auto& [name, value] : state.gauges) {
    GetGauge(name)->Set(value);
  }
  for (const auto& [name, histogram] : state.histograms) {
    auto status = GetHistogram(name)->ImportState(histogram);
    ZS_CHECK(status.ok());  // payload validated above
  }
  return common::Status::Ok();
}

}  // namespace zonestream::obs
