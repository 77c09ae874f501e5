#include "core/baselines.h"

#include <cmath>

#include "common/check.h"
#include "core/admission.h"
#include "numeric/quadrature.h"
#include "numeric/special_functions.h"

namespace zonestream::core {

WorstCaseResult WorstCaseAdmission(const disk::DiskGeometry& geometry,
                                   const disk::SeekTimeModel& seek,
                                   const workload::SizeDistribution& sizes,
                                   double t, const WorstCaseConfig& config) {
  ZS_CHECK_GT(t, 0.0);
  ZS_CHECK_GT(config.size_quantile, 0.0);
  ZS_CHECK_LT(config.size_quantile, 1.0);

  WorstCaseResult result;
  result.t_rot_max_s = geometry.rotation_time();
  result.t_seek_max_s = seek.MaxSeekTime(geometry.cylinders());
  const double rate =
      config.use_mean_rate
          ? 0.5 * (geometry.MinTransferRate() + geometry.MaxTransferRate())
          : geometry.MinTransferRate();
  result.t_trans_max_s = sizes.Quantile(config.size_quantile) / rate;
  const double per_request =
      result.t_rot_max_s + result.t_seek_max_s + result.t_trans_max_s;
  result.n_max = static_cast<int>(std::floor(t / per_request));
  return result;
}

double NormalApproxLateProbability(const ServiceTimeModel& model, int n,
                                   double t) {
  ZS_CHECK_GT(n, 0);
  ZS_CHECK_GT(t, 0.0);
  const ServiceTimeMoments moments = model.Moments(n);
  const double sigma = std::sqrt(moments.variance_s2);
  if (sigma == 0.0) return (moments.mean_s >= t) ? 1.0 : 0.0;
  return 1.0 - numeric::NormalCdf((t - moments.mean_s) / sigma);
}

int NormalApproxMaxStreams(const ServiceTimeModel& model, double t,
                           double delta, int n_cap) {
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [&](int n) { return NormalApproxLateProbability(model, n, t); };
  });
}

double ChebyshevLateBound(const ServiceTimeModel& model, int n, double t) {
  ZS_CHECK_GT(n, 0);
  ZS_CHECK_GT(t, 0.0);
  const ServiceTimeMoments moments = model.Moments(n);
  const double slack = t - moments.mean_s;
  if (slack <= 0.0) return 1.0;
  // Cantelli's one-sided inequality.
  return moments.variance_s2 / (moments.variance_s2 + slack * slack);
}

int ChebyshevMaxStreams(const ServiceTimeModel& model, double t, double delta,
                        int n_cap) {
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [&](int n) { return ChebyshevLateBound(model, n, t); };
  });
}

// ---------------------------------------------------------------------------
// IndependentSeekServiceModel

IndependentSeekServiceModel::IndependentSeekServiceModel(
    const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
    std::shared_ptr<const TransferModel> transfer)
    : seek_(seek),
      cylinders_(cylinders),
      rotation_time_s_(rotation_time_s),
      transfer_(std::move(transfer)),
      seek_mean_(0.0),
      seek_variance_(0.0) {
  // Moments of seek(D) with D triangular on [0, CYL]:
  // f_D(d) = 2 (1 - d/CYL) / CYL.
  const double cyl = static_cast<double>(cylinders_);
  const auto density = [cyl](double d) { return 2.0 * (1.0 - d / cyl) / cyl; };
  const auto m1 = [this, &density](double d) {
    return seek_.SeekTime(d) * density(d);
  };
  const auto m2 = [this, &density](double d) {
    const double s = seek_.SeekTime(d);
    return s * s * density(d);
  };
  seek_mean_ = numeric::CompositeGaussLegendre(m1, 0.0, cyl, 64);
  const double second = numeric::CompositeGaussLegendre(m2, 0.0, cyl, 64);
  seek_variance_ = second - seek_mean_ * seek_mean_;
}

common::StatusOr<IndependentSeekServiceModel>
IndependentSeekServiceModel::Create(
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
  return IndependentSeekServiceModel(seek, cylinders, rotation_time_s,
                                     std::move(transfer));
}

double IndependentSeekServiceModel::SeekLogMgf(double theta) const {
  const double cyl = static_cast<double>(cylinders_);
  const auto integrand = [this, cyl, theta](double d) {
    const double density = 2.0 * (1.0 - d / cyl) / cyl;
    return std::exp(theta * seek_.SeekTime(d)) * density;
  };
  // Seek times are bounded (<= full stroke), so the MGF is entire; 64
  // segments resolve the sqrt kink near d = 0 and the regime switch.
  return std::log(numeric::CompositeGaussLegendre(integrand, 0.0, cyl, 64));
}

double IndependentSeekServiceModel::RotationLogMgf(double theta) const {
  const double x = theta * rotation_time_s_;
  if (x == 0.0) return 0.0;
  if (x < 1e-4) {
    return std::log1p(x / 2.0 + x * x / 6.0 + x * x * x / 24.0);
  }
  return x + std::log1p(-std::exp(-x)) - std::log(x);
}

ChernoffResult IndependentSeekServiceModel::LateBound(int n, double t) const {
  ZS_CHECK_GT(n, 0);
  ZS_CHECK_GT(t, 0.0);
  const double nn = static_cast<double>(n);
  const auto log_mgf = [this, nn](double theta) {
    return nn * (SeekLogMgf(theta) + RotationLogMgf(theta) +
                 transfer_->LogMgf(theta));
  };
  return ChernoffTailBound(log_mgf, transfer_->theta_max(), t);
}

ServiceTimeMoments IndependentSeekServiceModel::Moments(int n) const {
  ZS_CHECK_GE(n, 0);
  const double nn = static_cast<double>(n);
  ServiceTimeMoments moments;
  moments.mean_s =
      nn * (seek_mean_ + rotation_time_s_ / 2.0 + transfer_->mean());
  moments.variance_s2 =
      nn * (seek_variance_ + rotation_time_s_ * rotation_time_s_ / 12.0 +
            transfer_->variance());
  return moments;
}

}  // namespace zonestream::core
