#include "core/service_time_model.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "sched/oyang_bound.h"

namespace zonestream::core {

ServiceTimeModel::ServiceTimeModel(
    const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
    std::shared_ptr<const TransferModel> transfer)
    : seek_(seek),
      cylinders_(cylinders),
      rotation_time_s_(rotation_time_s),
      transfer_(std::move(transfer)) {}

common::StatusOr<ServiceTimeModel> ServiceTimeModel::ForConventionalDisk(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    double mean_size_bytes, double variance_size_bytes2) {
  if (geometry.num_zones() != 1) {
    return common::Status::InvalidArgument(
        "conventional-disk model requires a single-zone geometry");
  }
  auto transfer = GammaTransferModel::ForConstantRate(
      mean_size_bytes, variance_size_bytes2, geometry.TransferRate(0));
  if (!transfer.ok()) return transfer.status();
  return ServiceTimeModel(
      seek, geometry.cylinders(), geometry.rotation_time(),
      std::make_shared<GammaTransferModel>(*std::move(transfer)));
}

common::StatusOr<ServiceTimeModel> ServiceTimeModel::FromTransferMoments(
    const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
    double mean_transfer_s, double variance_transfer_s2) {
  if (cylinders <= 0) {
    return common::Status::InvalidArgument("cylinders must be positive");
  }
  if (rotation_time_s <= 0.0) {
    return common::Status::InvalidArgument("rotation time must be positive");
  }
  auto transfer =
      GammaTransferModel::FromMoments(mean_transfer_s, variance_transfer_s2);
  if (!transfer.ok()) return transfer.status();
  return ServiceTimeModel(
      seek, cylinders, rotation_time_s,
      std::make_shared<GammaTransferModel>(*std::move(transfer)));
}

common::StatusOr<ServiceTimeModel> ServiceTimeModel::ForMultiZoneDisk(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    double mean_size_bytes, double variance_size_bytes2) {
  auto transfer = GammaTransferModel::ForMultiZone(geometry, mean_size_bytes,
                                                   variance_size_bytes2);
  if (!transfer.ok()) return transfer.status();
  return ServiceTimeModel(
      seek, geometry.cylinders(), geometry.rotation_time(),
      std::make_shared<GammaTransferModel>(*std::move(transfer)));
}

common::StatusOr<ServiceTimeModel> ServiceTimeModel::WithTransferModel(
    const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
    std::shared_ptr<const TransferModel> transfer) {
  if (cylinders <= 0) {
    return common::Status::InvalidArgument("cylinders must be positive");
  }
  if (rotation_time_s <= 0.0) {
    return common::Status::InvalidArgument("rotation time must be positive");
  }
  if (transfer == nullptr) {
    return common::Status::InvalidArgument("transfer model is null");
  }
  return ServiceTimeModel(seek, cylinders, rotation_time_s,
                          std::move(transfer));
}

double ServiceTimeModel::SeekBound(int n) const {
  return sched::OyangSeekBound(seek_, cylinders_, n);
}

double ServiceTimeModel::SeekLogMgf(int n, double theta) const {
  ZS_CHECK_GE(n, 0);
  ZS_CHECK_GE(theta, 0.0);
  if (seek_bound_kind_ == SeekBoundKind::kBachmat) {
    return BachmatSeekLogMgf(seek_, cylinders_, n, theta);
  }
  return theta * SeekBound(n);
}

ServiceTimeModel ServiceTimeModel::WithSeekBound(SeekBoundKind kind) const {
  ServiceTimeModel copy = *this;
  copy.seek_bound_kind_ = kind;
  return copy;
}

double ServiceTimeModel::RotationLogMgf(double theta) const {
  const double x = theta * rotation_time_s_;
  if (x == 0.0) return 0.0;
  if (x < 1e-4) {
    // (e^x - 1)/x = 1 + x/2 + x^2/6 + x^3/24 + O(x^4).
    return std::log1p(x / 2.0 + x * x / 6.0 + x * x * x / 24.0);
  }
  // log((e^x - 1)/x) = x + log(1 - e^{-x}) - log(x), stable for large x.
  return x + std::log1p(-std::exp(-x)) - std::log(x);
}

double ServiceTimeModel::PerRequestLogMgf(double theta) const {
  ZS_CHECK_GE(theta, 0.0);
  return RotationLogMgf(theta) + transfer_->LogMgf(theta);
}

double ServiceTimeModel::LogMgf(int n, double theta) const {
  ZS_CHECK_GE(n, 0);
  ZS_CHECK_GE(theta, 0.0);
  const double nn = static_cast<double>(n);
  return SeekLogMgf(n, theta) + nn * RotationLogMgf(theta) +
         nn * transfer_->LogMgf(theta);
}

ChernoffResult ServiceTimeModel::LateBound(int n, double t,
                                           const ChernoffOptions& options)
    const {
  ZS_CHECK_GE(n, 0);
  ZS_CHECK_GT(t, 0.0);
  if (n == 0) {
    // No requests: the round never overruns.
    ChernoffResult result;
    result.bound = 0.0;
    result.exponent = -std::numeric_limits<double>::infinity();
    result.converged = true;
    return result;
  }
  const auto log_mgf = [this, n](double theta) { return LogMgf(n, theta); };
  return ChernoffTailBound(log_mgf, transfer_->theta_max(), t, options);
}

ServiceTimeMoments ServiceTimeModel::Moments(int n) const {
  ZS_CHECK_GE(n, 0);
  const double nn = static_cast<double>(n);
  ServiceTimeMoments moments;
  // Uniform(0, ROT): mean ROT/2, variance ROT^2/12.
  const double seek_mean =
      seek_bound_kind_ == SeekBoundKind::kBachmat
          ? BachmatExpectedSeekTotal(seek_, cylinders_, n)
          : SeekBound(n);
  moments.mean_s = seek_mean + nn * (rotation_time_s_ / 2.0 +
                                     transfer_->mean());
  moments.variance_s2 =
      nn * (rotation_time_s_ * rotation_time_s_ / 12.0 + transfer_->variance());
  if (seek_bound_kind_ == SeekBoundKind::kBachmat) {
    moments.variance_s2 +=
        BachmatSeekTotalVarianceBound(seek_, cylinders_, n);
  }
  return moments;
}

}  // namespace zonestream::core
