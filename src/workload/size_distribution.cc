#include "workload/size_distribution.h"

#include <cmath>

#include "common/check.h"
#include "numeric/quadrature.h"
#include "numeric/roots.h"
#include "numeric/special_functions.h"

namespace zonestream::workload {

void SizeDistribution::FillSamples(numeric::Rng* rng, double* out,
                                   size_t n) const {
  for (size_t i = 0; i < n; ++i) out[i] = Sample(rng);
}

double SizeDistribution::Mgf(double theta) const {
  ZS_CHECK(has_finite_mgf());
  ZS_CHECK_LT(theta, MgfThetaMax());
  const auto integrand = [this, theta](double x) {
    return std::exp(theta * x) * Density(x);
  };
  // The e^{theta x} factor shifts mass far beyond the distribution's own
  // tail, so integrate the body first and then extend in geometric
  // segments until the tail contribution is negligible.
  const double lo = Quantile(0.0);
  double hi = Quantile(1.0 - 1e-12);
  double total = numeric::CompositeGaussLegendre(integrand, lo, hi,
                                                 /*segments=*/64,
                                                 /*order=*/32);
  for (int extension = 0; extension < 64; ++extension) {
    const double next_hi = 1.5 * hi;
    const double segment = numeric::CompositeGaussLegendre(
        integrand, hi, next_hi, /*segments=*/8, /*order=*/32);
    total += segment;
    hi = next_hi;
    if (segment <= 1e-14 * total) break;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Gamma

common::StatusOr<GammaSizeDistribution> GammaSizeDistribution::Create(
    double mean, double variance) {
  if (mean <= 0.0) {
    return common::Status::InvalidArgument("gamma mean must be positive");
  }
  if (variance <= 0.0) {
    return common::Status::InvalidArgument("gamma variance must be positive");
  }
  const double shape = mean * mean / variance;
  const double scale = variance / mean;
  return GammaSizeDistribution(shape, scale);
}

double GammaSizeDistribution::Density(double x) const {
  if (x <= 0.0) return 0.0;
  const double log_density = (shape_ - 1.0) * std::log(x) - x / scale_ -
                             shape_ * std::log(scale_) -
                             numeric::LogGamma(shape_);
  return std::exp(log_density);
}

double GammaSizeDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return numeric::RegularizedGammaP(shape_, x / scale_);
}

double GammaSizeDistribution::Quantile(double p) const {
  return scale_ * numeric::InverseRegularizedGammaP(shape_, p);
}

double GammaSizeDistribution::Sample(numeric::Rng* rng) const {
  return rng->Gamma(shape_, scale_);
}

void GammaSizeDistribution::FillSamples(numeric::Rng* rng, double* out,
                                        size_t n) const {
  batch_sampler_.Fill(rng, out, n);
}

double GammaSizeDistribution::Mgf(double theta) const {
  ZS_CHECK_LT(theta, MgfThetaMax());
  return std::pow(1.0 - scale_ * theta, -shape_);
}

// ---------------------------------------------------------------------------
// Lognormal

common::StatusOr<LognormalSizeDistribution> LognormalSizeDistribution::Create(
    double mean, double variance) {
  if (mean <= 0.0) {
    return common::Status::InvalidArgument("lognormal mean must be positive");
  }
  if (variance <= 0.0) {
    return common::Status::InvalidArgument(
        "lognormal variance must be positive");
  }
  const double sigma2 = std::log(1.0 + variance / (mean * mean));
  const double mu = std::log(mean) - 0.5 * sigma2;
  return LognormalSizeDistribution(mean, variance, mu, std::sqrt(sigma2));
}

double LognormalSizeDistribution::Density(double x) const {
  if (x <= 0.0) return 0.0;
  const double z = (std::log(x) - mu_) / sigma_;
  return std::exp(-0.5 * z * z) / (x * sigma_ * std::sqrt(2.0 * M_PI));
}

double LognormalSizeDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return numeric::NormalCdf((std::log(x) - mu_) / sigma_);
}

double LognormalSizeDistribution::Quantile(double p) const {
  if (p <= 0.0) return 0.0;
  return std::exp(mu_ + sigma_ * numeric::NormalQuantile(p));
}

double LognormalSizeDistribution::Sample(numeric::Rng* rng) const {
  return rng->LognormalByMoments(mean_, variance_);
}

// ---------------------------------------------------------------------------
// Truncated Pareto

TruncatedParetoSizeDistribution::TruncatedParetoSizeDistribution(double x_min,
                                                                 double alpha,
                                                                 double cap)
    : x_min_(x_min),
      alpha_(alpha),
      cap_(cap),
      normalizer_(1.0 - std::pow(x_min / cap, alpha)),
      mean_(0.0),
      variance_(0.0) {
  mean_ = RawMoment(1);
  variance_ = RawMoment(2) - mean_ * mean_;
}

common::StatusOr<TruncatedParetoSizeDistribution>
TruncatedParetoSizeDistribution::Create(double x_min, double alpha,
                                        double cap) {
  if (x_min <= 0.0) {
    return common::Status::InvalidArgument("pareto x_min must be positive");
  }
  if (alpha <= 0.0) {
    return common::Status::InvalidArgument("pareto alpha must be positive");
  }
  if (cap <= x_min) {
    return common::Status::InvalidArgument("pareto cap must exceed x_min");
  }
  return TruncatedParetoSizeDistribution(x_min, alpha, cap);
}

namespace {

double TruncatedParetoMean(double x_min, double alpha, double cap) {
  return TruncatedParetoSizeDistribution::Create(x_min, alpha, cap)->mean();
}

double TruncatedParetoVariance(double x_min, double alpha, double cap) {
  return TruncatedParetoSizeDistribution::Create(x_min, alpha, cap)
      ->variance();
}

// Solves x_min so the truncated Pareto with the given (alpha, cap) has the
// requested mean; the mean is strictly increasing in x_min. Returns a
// negative value if the mean is unreachable for this cap.
double SolveXMinForMean(double mean, double alpha, double cap) {
  const auto mean_error = [alpha, cap, mean](double x_min) {
    return TruncatedParetoMean(x_min, alpha, cap) - mean;
  };
  const double lo = mean * 1e-9;
  const double hi = cap * (1.0 - 1e-12);
  if (mean_error(lo) > 0.0 || mean_error(hi) < 0.0) return -1.0;
  return numeric::Bisect(mean_error, lo, hi).x;
}

}  // namespace

common::StatusOr<TruncatedParetoSizeDistribution>
TruncatedParetoSizeDistribution::CreateByMoments(double mean, double variance,
                                                 double alpha,
                                                 double max_cap_over_mean) {
  if (mean <= 0.0 || variance <= 0.0) {
    return common::Status::InvalidArgument("moments must be positive");
  }
  if (alpha <= 0.0) {
    return common::Status::InvalidArgument("pareto alpha must be positive");
  }
  if (max_cap_over_mean <= 1.0) {
    return common::Status::InvalidArgument("max_cap_over_mean must exceed 1");
  }
  // Two-parameter match: for fixed alpha, the variance at the requested
  // mean is increasing in the truncation cap (a longer tail at the same
  // mean spreads the distribution), so bisect on log(cap).
  const auto variance_at_cap = [mean, alpha](double cap) {
    const double x_min = SolveXMinForMean(mean, alpha, cap);
    if (x_min <= 0.0) return -1.0;  // mean unreachable at this cap
    return TruncatedParetoVariance(x_min, alpha, cap);
  };
  double log_cap_lo = std::log(mean * 1.001);
  double log_cap_hi = std::log(mean * max_cap_over_mean);
  const double var_lo = variance_at_cap(std::exp(log_cap_lo));
  const double var_hi = variance_at_cap(std::exp(log_cap_hi));
  if (var_lo < 0.0 || var_hi < 0.0 || variance < var_lo || variance > var_hi) {
    return common::Status::OutOfRange(
        "requested variance not reachable for this alpha within the cap "
        "limit (heavier tails need a smaller alpha or a larger "
        "max_cap_over_mean)");
  }
  for (int i = 0; i < 200 && (log_cap_hi - log_cap_lo) > 1e-13; ++i) {
    const double log_mid = 0.5 * (log_cap_lo + log_cap_hi);
    if (variance_at_cap(std::exp(log_mid)) < variance) {
      log_cap_lo = log_mid;
    } else {
      log_cap_hi = log_mid;
    }
  }
  const double cap = std::exp(0.5 * (log_cap_lo + log_cap_hi));
  const double x_min = SolveXMinForMean(mean, alpha, cap);
  ZS_CHECK_GT(x_min, 0.0);
  return TruncatedParetoSizeDistribution(x_min, alpha, cap);
}

double TruncatedParetoSizeDistribution::RawMoment(int k) const {
  ZS_CHECK_GT(k, 0);
  const double kk = static_cast<double>(k);
  const double scale = alpha_ * std::pow(x_min_, alpha_) / normalizer_;
  if (std::fabs(kk - alpha_) < 1e-12) {
    return scale * std::log(cap_ / x_min_);
  }
  return scale *
         (std::pow(cap_, kk - alpha_) - std::pow(x_min_, kk - alpha_)) /
         (kk - alpha_);
}

double TruncatedParetoSizeDistribution::Density(double x) const {
  if (x < x_min_ || x > cap_) return 0.0;
  return alpha_ * std::pow(x_min_, alpha_) * std::pow(x, -alpha_ - 1.0) /
         normalizer_;
}

double TruncatedParetoSizeDistribution::Cdf(double x) const {
  if (x <= x_min_) return 0.0;
  if (x >= cap_) return 1.0;
  return (1.0 - std::pow(x_min_ / x, alpha_)) / normalizer_;
}

double TruncatedParetoSizeDistribution::Quantile(double p) const {
  ZS_CHECK_GE(p, 0.0);
  ZS_CHECK_LE(p, 1.0);
  if (p >= 1.0) return cap_;
  return x_min_ * std::pow(1.0 - p * normalizer_, -1.0 / alpha_);
}

double TruncatedParetoSizeDistribution::Sample(numeric::Rng* rng) const {
  return rng->TruncatedPareto(x_min_, alpha_, cap_);
}

// ---------------------------------------------------------------------------
// Mixture

MixtureSizeDistribution::MixtureSizeDistribution(
    std::vector<std::shared_ptr<const SizeDistribution>> components,
    std::vector<double> weights)
    : components_(std::move(components)),
      weights_(std::move(weights)),
      mean_(0.0),
      variance_(0.0),
      has_finite_mgf_(true),
      theta_max_(std::numeric_limits<double>::infinity()) {
  cumulative_weights_.resize(weights_.size());
  double cumulative = 0.0;
  double second_moment = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    cumulative += weights_[i];
    cumulative_weights_[i] = cumulative;
    const double m = components_[i]->mean();
    mean_ += weights_[i] * m;
    second_moment += weights_[i] * (components_[i]->variance() + m * m);
    has_finite_mgf_ = has_finite_mgf_ && components_[i]->has_finite_mgf();
    theta_max_ = std::fmin(theta_max_, components_[i]->MgfThetaMax());
  }
  cumulative_weights_.back() = 1.0;
  variance_ = second_moment - mean_ * mean_;
}

common::StatusOr<MixtureSizeDistribution> MixtureSizeDistribution::Create(
    std::vector<std::shared_ptr<const SizeDistribution>> components,
    std::vector<double> weights) {
  if (components.empty() || components.size() != weights.size()) {
    return common::Status::InvalidArgument(
        "components and weights must be non-empty and of equal length");
  }
  double sum = 0.0;
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i] == nullptr) {
      return common::Status::InvalidArgument("null component");
    }
    if (weights[i] <= 0.0) {
      return common::Status::InvalidArgument("weights must be positive");
    }
    sum += weights[i];
  }
  if (std::fabs(sum - 1.0) > 1e-9) {
    return common::Status::InvalidArgument("weights must sum to 1");
  }
  return MixtureSizeDistribution(std::move(components), std::move(weights));
}

double MixtureSizeDistribution::Density(double x) const {
  double density = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    density += weights_[i] * components_[i]->Density(x);
  }
  return density;
}

double MixtureSizeDistribution::Cdf(double x) const {
  double cdf = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    cdf += weights_[i] * components_[i]->Cdf(x);
  }
  return cdf;
}

double MixtureSizeDistribution::Quantile(double p) const {
  ZS_CHECK_GE(p, 0.0);
  ZS_CHECK_LT(p, 1.0);
  if (p == 0.0) return 0.0;
  // Bracket using the extreme component quantiles, then bisect the CDF.
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const auto& component : components_) {
    const double q = component->Quantile(p);
    lo = std::fmin(lo, q);
    hi = std::fmax(hi, q);
  }
  if (hi - lo < 1e-12 * (1.0 + hi)) return hi;
  for (int i = 0; i < 200 && (hi - lo) > 1e-12 * (1.0 + hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (Cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double MixtureSizeDistribution::Sample(numeric::Rng* rng) const {
  const double u = rng->Uniform01();
  size_t component = 0;
  while (component + 1 < cumulative_weights_.size() &&
         u > cumulative_weights_[component]) {
    ++component;
  }
  return components_[component]->Sample(rng);
}

double MixtureSizeDistribution::Mgf(double theta) const {
  ZS_CHECK(has_finite_mgf_);
  ZS_CHECK_LT(theta, theta_max_);
  double mgf = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    mgf += weights_[i] * components_[i]->Mgf(theta);
  }
  return mgf;
}

}  // namespace zonestream::workload
