#include "core/transfer_models.h"

#include <cmath>

#include "common/check.h"

namespace zonestream::core {

// ---------------------------------------------------------------------------
// GammaTransferModel

common::StatusOr<GammaTransferModel> GammaTransferModel::FromMoments(
    double mean_s, double variance_s2) {
  if (mean_s <= 0.0) {
    return common::Status::InvalidArgument(
        "transfer-time mean must be positive");
  }
  if (variance_s2 <= 0.0) {
    return common::Status::InvalidArgument(
        "transfer-time variance must be positive");
  }
  const double alpha = mean_s / variance_s2;          // rate, eq. (3.1.2)
  const double beta = mean_s * mean_s / variance_s2;  // shape
  return GammaTransferModel(alpha, beta);
}

common::StatusOr<GammaTransferModel> GammaTransferModel::ForConstantRate(
    double mean_size_bytes, double variance_size_bytes2, double rate_bps) {
  if (rate_bps <= 0.0) {
    return common::Status::InvalidArgument("transfer rate must be positive");
  }
  return FromMoments(mean_size_bytes / rate_bps,
                     variance_size_bytes2 / (rate_bps * rate_bps));
}

common::StatusOr<GammaTransferModel> GammaTransferModel::ForMultiZone(
    const disk::DiskGeometry& geometry, double mean_size_bytes,
    double variance_size_bytes2) {
  if (mean_size_bytes <= 0.0 || variance_size_bytes2 <= 0.0) {
    return common::Status::InvalidArgument(
        "size moments must be positive");
  }
  // Exact moments of T = S/R with S and R independent:
  // E[T] = E[S]·E[1/R], E[T^2] = E[S^2]·E[1/R^2].
  const double inv_rate_1 = geometry.InverseRateMoment(1);
  const double inv_rate_2 = geometry.InverseRateMoment(2);
  const double size_m2 =
      variance_size_bytes2 + mean_size_bytes * mean_size_bytes;
  const double mean_t = mean_size_bytes * inv_rate_1;
  const double var_t = size_m2 * inv_rate_2 - mean_t * mean_t;
  ZS_CHECK_GT(var_t, 0.0);
  return FromMoments(mean_t, var_t);
}

common::StatusOr<GammaTransferModel> GammaTransferModel::ForRateMixture(
    const std::vector<double>& probabilities, const std::vector<double>& rates,
    double mean_size_bytes, double variance_size_bytes2) {
  if (probabilities.empty() || probabilities.size() != rates.size()) {
    return common::Status::InvalidArgument(
        "probabilities and rates must be non-empty and of equal length");
  }
  double prob_sum = 0.0;
  double inv_rate_1 = 0.0;
  double inv_rate_2 = 0.0;
  for (size_t i = 0; i < rates.size(); ++i) {
    if (probabilities[i] < 0.0 || rates[i] <= 0.0) {
      return common::Status::InvalidArgument(
          "probabilities must be >= 0 and rates > 0");
    }
    prob_sum += probabilities[i];
    inv_rate_1 += probabilities[i] / rates[i];
    inv_rate_2 += probabilities[i] / (rates[i] * rates[i]);
  }
  if (std::fabs(prob_sum - 1.0) > 1e-9) {
    return common::Status::InvalidArgument("probabilities must sum to 1");
  }
  if (mean_size_bytes <= 0.0 || variance_size_bytes2 <= 0.0) {
    return common::Status::InvalidArgument("size moments must be positive");
  }
  const double size_m2 =
      variance_size_bytes2 + mean_size_bytes * mean_size_bytes;
  const double mean_t = mean_size_bytes * inv_rate_1;
  const double var_t = size_m2 * inv_rate_2 - mean_t * mean_t;
  ZS_CHECK_GT(var_t, 0.0);
  return FromMoments(mean_t, var_t);
}

double GammaTransferModel::LogMgf(double theta) const {
  ZS_CHECK_GE(theta, 0.0);
  ZS_CHECK_LT(theta, alpha_);
  // log (alpha/(alpha-theta))^beta, eq. (3.1.3) at s = -theta.
  return -beta_ * std::log1p(-theta / alpha_);
}

// ---------------------------------------------------------------------------
// ZoneMixtureTransferModel

ZoneMixtureTransferModel::ZoneMixtureTransferModel(
    std::vector<double> probabilities, std::vector<double> rates,
    std::shared_ptr<const workload::SizeDistribution> sizes)
    : probabilities_(std::move(probabilities)),
      rates_(std::move(rates)),
      sizes_(std::move(sizes)),
      mean_(0.0),
      variance_(0.0),
      theta_max_(0.0) {
  double inv_rate_1 = 0.0;
  double inv_rate_2 = 0.0;
  double min_rate = rates_.front();
  for (size_t i = 0; i < rates_.size(); ++i) {
    inv_rate_1 += probabilities_[i] / rates_[i];
    inv_rate_2 += probabilities_[i] / (rates_[i] * rates_[i]);
    min_rate = std::fmin(min_rate, rates_[i]);
  }
  const double size_mean = sizes_->mean();
  const double size_m2 = sizes_->variance() + size_mean * size_mean;
  mean_ = size_mean * inv_rate_1;
  variance_ = size_m2 * inv_rate_2 - mean_ * mean_;
  // M_T(θ) = Σ p_i M_S(θ/R_i) is finite iff θ/R_i < θ_max,S for every zone;
  // the binding constraint is the slowest zone.
  theta_max_ = min_rate * sizes_->MgfThetaMax();
}

common::StatusOr<ZoneMixtureTransferModel> ZoneMixtureTransferModel::Create(
    const disk::DiskGeometry& geometry,
    std::shared_ptr<const workload::SizeDistribution> sizes) {
  if (sizes == nullptr) {
    return common::Status::InvalidArgument("size distribution is null");
  }
  if (!sizes->has_finite_mgf()) {
    return common::Status::FailedPrecondition(
        "size distribution has no finite MGF; use the Gamma moment-matched "
        "model instead");
  }
  std::vector<double> probabilities;
  std::vector<double> rates;
  probabilities.reserve(geometry.num_zones());
  rates.reserve(geometry.num_zones());
  for (const disk::ZoneInfo& zone : geometry.zones()) {
    probabilities.push_back(zone.hit_probability);
    rates.push_back(zone.transfer_rate_bps);
  }
  return ZoneMixtureTransferModel(std::move(probabilities), std::move(rates),
                                  std::move(sizes));
}

double ZoneMixtureTransferModel::LogMgf(double theta) const {
  ZS_CHECK_GE(theta, 0.0);
  ZS_CHECK_LT(theta, theta_max_);
  double mgf = 0.0;
  for (size_t i = 0; i < rates_.size(); ++i) {
    mgf += probabilities_[i] * sizes_->Mgf(theta / rates_[i]);
  }
  return std::log(mgf);
}

}  // namespace zonestream::core
