#include "core/multiclass.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/admission.h"
#include "core/glitch_model.h"
#include "sched/oyang_bound.h"

namespace zonestream::core {

MultiClassServiceModel::MultiClassServiceModel(
    const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
    std::vector<StreamClass> classes,
    std::vector<GammaTransferModel> transfers)
    : seek_(seek),
      cylinders_(cylinders),
      rotation_time_s_(rotation_time_s),
      classes_(std::move(classes)),
      transfers_(std::move(transfers)) {}

common::StatusOr<MultiClassServiceModel> MultiClassServiceModel::Create(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    std::vector<StreamClass> classes) {
  if (classes.empty()) {
    return common::Status::InvalidArgument("need at least one stream class");
  }
  std::vector<GammaTransferModel> transfers;
  transfers.reserve(classes.size());
  for (const StreamClass& stream_class : classes) {
    auto transfer = GammaTransferModel::ForMultiZone(
        geometry, stream_class.mean_size_bytes,
        stream_class.variance_size_bytes2);
    if (!transfer.ok()) {
      return common::Status::InvalidArgument(
          "class '" + stream_class.name +
          "': " + transfer.status().message());
    }
    transfers.push_back(*std::move(transfer));
  }
  return MultiClassServiceModel(seek, geometry.cylinders(),
                                geometry.rotation_time(), std::move(classes),
                                std::move(transfers));
}

const StreamClass& MultiClassServiceModel::stream_class(int c) const {
  ZS_CHECK_GE(c, 0);
  ZS_CHECK_LT(c, num_classes());
  return classes_[c];
}

int MultiClassServiceModel::TotalStreams(const ClassCounts& counts) {
  int total = 0;
  for (int count : counts) {
    ZS_CHECK_GE(count, 0);
    total += count;
  }
  return total;
}

double MultiClassServiceModel::SeekBound(const ClassCounts& counts) const {
  return sched::OyangSeekBound(seek_, cylinders_, TotalStreams(counts));
}

double MultiClassServiceModel::RotationLogMgf(double theta) const {
  const double x = theta * rotation_time_s_;
  if (x == 0.0) return 0.0;
  if (x < 1e-4) {
    return std::log1p(x / 2.0 + x * x / 6.0 + x * x * x / 24.0);
  }
  return x + std::log1p(-std::exp(-x)) - std::log(x);
}

double MultiClassServiceModel::LogMgfFractional(
    const std::vector<double>& counts, double total, double theta) const {
  ZS_CHECK_LE(counts.size(), transfers_.size());
  const double seek_bound =
      sched::OyangSeekBound(seek_, cylinders_,
                            static_cast<int>(std::ceil(total - 1e-12)));
  double log_mgf = theta * seek_bound + total * RotationLogMgf(theta);
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0.0) log_mgf += counts[c] * transfers_[c].LogMgf(theta);
  }
  return log_mgf;
}

double MultiClassServiceModel::LogMgf(const ClassCounts& counts,
                                      double theta) const {
  ZS_CHECK_LE(counts.size(), transfers_.size());
  std::vector<double> fractional(counts.begin(), counts.end());
  return LogMgfFractional(fractional, TotalStreams(counts), theta);
}

double MultiClassServiceModel::ThetaMax(const ClassCounts& counts) const {
  ZS_CHECK_LE(counts.size(), transfers_.size());
  double theta_max = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) {
      theta_max = std::fmin(theta_max, transfers_[c].theta_max());
    }
  }
  return theta_max;
}

ChernoffResult MultiClassServiceModel::LateBoundFractional(
    const std::vector<double>& counts, double total, double t) const {
  if (total <= 0.0) {
    ChernoffResult result;
    result.bound = 0.0;
    result.converged = true;
    return result;
  }
  double theta_max = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0.0) {
      theta_max = std::fmin(theta_max, transfers_[c].theta_max());
    }
  }
  const auto log_mgf = [this, &counts, total](double theta) {
    return LogMgfFractional(counts, total, theta);
  };
  return ChernoffTailBound(log_mgf, theta_max, t);
}

ChernoffResult MultiClassServiceModel::LateBound(const ClassCounts& counts,
                                                 double t) const {
  ZS_CHECK_GT(t, 0.0);
  std::vector<double> fractional(counts.begin(), counts.end());
  return LateBoundFractional(fractional, TotalStreams(counts), t);
}

ServiceTimeMoments MultiClassServiceModel::Moments(
    const ClassCounts& counts) const {
  ZS_CHECK_LE(counts.size(), transfers_.size());
  const double total = TotalStreams(counts);
  ServiceTimeMoments moments;
  moments.mean_s = SeekBound(counts) + total * rotation_time_s_ / 2.0;
  moments.variance_s2 =
      total * rotation_time_s_ * rotation_time_s_ / 12.0;
  for (size_t c = 0; c < counts.size(); ++c) {
    moments.mean_s += counts[c] * transfers_[c].mean();
    moments.variance_s2 += counts[c] * transfers_[c].variance();
  }
  return moments;
}

double MultiClassServiceModel::GlitchBoundPerRound(const ClassCounts& counts,
                                                   double t) const {
  const int total = TotalStreams(counts);
  ZS_CHECK_GT(total, 0);
  // Generalized eq. 3.3.2: average the late bound over k-subsets,
  // approximating the random k-subset by proportional class scaling
  // (exact in expectation over the uniformly random subset).
  std::vector<double> fractional(counts.size());
  double sum = 0.0;
  for (int k = 1; k <= total; ++k) {
    const double scale = static_cast<double>(k) / total;
    for (size_t c = 0; c < counts.size(); ++c) {
      fractional[c] = counts[c] * scale;
    }
    sum += LateBoundFractional(fractional, k, t).bound;
  }
  return std::fmin(sum / total, 1.0);
}

double MultiClassServiceModel::ErrorBound(const ClassCounts& counts, double t,
                                          int m, int g) const {
  return BinomialTailChernoff(m, GlitchBoundPerRound(counts, t), g);
}

bool MultiClassServiceModel::Admissible(const ClassCounts& counts, double t,
                                        double delta) const {
  ZS_CHECK_GT(delta, 0.0);
  if (TotalStreams(counts) == 0) return true;
  return LateBound(counts, t).bound <= delta;
}

int MultiClassServiceModel::MaxAdditionalStreams(const ClassCounts& base,
                                                 int class_index, double t,
                                                 double delta, int cap) const {
  ZS_CHECK_GE(class_index, 0);
  ZS_CHECK_LT(class_index, num_classes());
  ClassCounts counts = base;
  counts.resize(transfers_.size(), 0);
  const int base_count = counts[class_index];
  return MaxStreamsWithin(t, delta, cap, [&] {
    return [&](int added) {
      counts[class_index] = base_count + added;
      return LateBound(counts, t).bound;
    };
  });
}

std::vector<std::pair<int, int>> MultiClassServiceModel::CapacityFrontier(
    double t, double delta) const {
  ZS_CHECK_EQ(num_classes(), 2);
  std::vector<std::pair<int, int>> frontier;
  const int max_class0 = MaxAdditionalStreams({0, 0}, 0, t, delta);
  for (int n0 = 0; n0 <= max_class0; ++n0) {
    frontier.emplace_back(n0, MaxAdditionalStreams({n0, 0}, 1, t, delta));
  }
  return frontier;
}

}  // namespace zonestream::core
