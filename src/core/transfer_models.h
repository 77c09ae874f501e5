// Per-request transfer-time models feeding the round service-time transform.
//
// The paper models the transfer time of one fragment as Gamma-distributed —
// directly from moments for a conventional disk (§3.1), or moment-matched
// to the multi-zone transfer-time density (§3.2). As an extension we also
// provide the *exact* multi-zone transform (a zone mixture of size-MGFs),
// which quantifies what the Gamma approximation costs.
#ifndef ZONESTREAM_CORE_TRANSFER_MODELS_H_
#define ZONESTREAM_CORE_TRANSFER_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "disk/disk_geometry.h"
#include "workload/size_distribution.h"

namespace zonestream::core {

// Cumulant generating function of the transfer time of a single request.
class TransferModel {
 public:
  virtual ~TransferModel() = default;

  virtual std::string name() const = 0;

  // First two moments of the per-request transfer time, in seconds.
  virtual double mean() const = 0;
  virtual double variance() const = 0;

  // log E[e^{θ T_trans}] for θ in [0, theta_max()).
  virtual double LogMgf(double theta) const = 0;

  // Supremum of the admissible θ domain (may be +infinity).
  virtual double theta_max() const = 0;
};

// Gamma transfer time with rate alpha = mean/variance (1/seconds) and shape
// beta = mean^2/variance — eq. (3.1.2)/(3.1.3). The default model.
class GammaTransferModel final : public TransferModel {
 public:
  // From transfer-time moments directly (§3.1 usage, where the caller
  // derives the moments from fragment-size moments and a fixed rate).
  static common::StatusOr<GammaTransferModel> FromMoments(double mean_s,
                                                          double variance_s2);

  // §3.1 convenience: sizes with the given moments served at one fixed
  // transfer rate (conventional single-zone disk). T = S/rate is then
  // exactly Gamma when S is Gamma.
  static common::StatusOr<GammaTransferModel> ForConstantRate(
      double mean_size_bytes, double variance_size_bytes2, double rate_bps);

  // §3.2: moment-matched to the exact multi-zone transfer-time moments
  // E[T^k] = E[S^k]·E[R^{-k}] under uniform-over-capacity placement.
  static common::StatusOr<GammaTransferModel> ForMultiZone(
      const disk::DiskGeometry& geometry, double mean_size_bytes,
      double variance_size_bytes2);

  // Placement-extension variant: moment-matched against an arbitrary
  // discrete transfer-rate mixture (probabilities and rates of equal
  // length, probabilities summing to 1) — e.g. the mixtures induced by
  // the disk::PlacementModel strategies.
  static common::StatusOr<GammaTransferModel> ForRateMixture(
      const std::vector<double>& probabilities,
      const std::vector<double>& rates, double mean_size_bytes,
      double variance_size_bytes2);

  std::string name() const override { return "gamma"; }
  double mean() const override { return beta_ / alpha_; }
  double variance() const override { return beta_ / (alpha_ * alpha_); }
  double LogMgf(double theta) const override;
  double theta_max() const override { return alpha_; }

  // Rate parameter alpha (1/seconds) and shape beta.
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

 private:
  GammaTransferModel(double alpha, double beta) : alpha_(alpha), beta_(beta) {}
  double alpha_;
  double beta_;
};

// Exact multi-zone transform: T = S/R with R the discrete zone-rate mixture,
// so M_T(θ) = Σ_i (C_i/C) · M_S(θ/R_i). Requires a size distribution with a
// finite MGF. This is the "no Gamma approximation" extension used by the
// approximation ablation.
class ZoneMixtureTransferModel final : public TransferModel {
 public:
  static common::StatusOr<ZoneMixtureTransferModel> Create(
      const disk::DiskGeometry& geometry,
      std::shared_ptr<const workload::SizeDistribution> sizes);

  std::string name() const override { return "zone-mixture"; }
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  double LogMgf(double theta) const override;
  double theta_max() const override { return theta_max_; }

 private:
  ZoneMixtureTransferModel(std::vector<double> probabilities,
                           std::vector<double> rates,
                           std::shared_ptr<const workload::SizeDistribution> sizes);

  std::vector<double> probabilities_;  // C_i / C
  std::vector<double> rates_;          // R_i
  std::shared_ptr<const workload::SizeDistribution> sizes_;
  double mean_;
  double variance_;
  double theta_max_;
};

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_TRANSFER_MODELS_H_
