#include "core/saddlepoint.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/admission.h"
#include "core/baselines.h"
#include "numeric/roots.h"
#include "numeric/special_functions.h"

namespace zonestream::core {
namespace {

// Numeric first derivative of K at theta, staying inside [0, theta_max).
double KPrime(const std::function<double(double)>& log_mgf, double theta,
              double theta_max) {
  double h = 1e-5 * (1.0 + theta);
  if (std::isfinite(theta_max)) h = std::fmin(h, 0.25 * (theta_max - theta));
  h = std::fmin(h, theta > 0.0 ? 0.5 * theta : h);
  if (theta - h < 0.0) {
    // One-sided at the left edge.
    return (log_mgf(theta + h) - log_mgf(theta)) / h;
  }
  return (log_mgf(theta + h) - log_mgf(theta - h)) / (2.0 * h);
}

// Numeric second derivative of K at theta.
double KSecond(const std::function<double(double)>& log_mgf, double theta,
               double theta_max) {
  double h = 1e-4 * (1.0 + theta);
  if (std::isfinite(theta_max)) h = std::fmin(h, 0.25 * (theta_max - theta));
  h = std::fmin(h, theta > 0.0 ? 0.5 * theta : h);
  return (log_mgf(theta + h) - 2.0 * log_mgf(theta) + log_mgf(theta - h)) /
         (h * h);
}

// Standardized third cumulant ρ3 = K'''(θ0)/K''(θ0)^{3/2} near `theta`.
// The five-point K''' stencil needs θ0 - 2h >= 0, so the base point is
// shifted to 2h when θ is closer to the origin than that (the skewness is
// smooth, so the O(h) base-point shift is harmless at the accuracy the
// near-mean limit needs).
double StandardizedThirdCumulant(
    const std::function<double(double)>& log_mgf, double theta,
    double theta_max) {
  double h = 1e-3 * (1.0 + theta);
  if (std::isfinite(theta_max)) {
    h = std::fmin(h, 0.125 * (theta_max - theta));
  }
  if (h <= 0.0) return 0.0;
  const double theta0 = std::fmax(theta, 2.0 * h);
  const double k3 =
      (log_mgf(theta0 + 2.0 * h) - 2.0 * log_mgf(theta0 + h) +
       2.0 * log_mgf(theta0 - h) - log_mgf(theta0 - 2.0 * h)) /
      (2.0 * h * h * h);
  const double k2 = KSecond(log_mgf, theta0, theta_max);
  if (k2 <= 0.0) return 0.0;
  return k3 / (k2 * std::sqrt(k2));
}

}  // namespace

SaddlepointResult SaddlepointTailProbability(
    const std::function<double(double)>& log_mgf, double theta_max,
    double t) {
  ZS_CHECK_GT(theta_max, 0.0);
  SaddlepointResult result;

  // Mean from the CGF slope at the origin.
  const double mean = KPrime(log_mgf, 0.0, theta_max);
  if (t <= mean) {
    // Below the mean the positive-θ saddlepoint does not exist (our CGFs
    // are only evaluated for θ >= 0); fall back to the Edgeworth
    // (skewness-corrected normal) estimate. The ρ3 term matters at the
    // branch seam: at z = 0 it gives 1/2 - φ(0)·ρ3/6, exactly the
    // above-mean limiting form's value, so crossing t over E[T] is
    // continuous instead of jumping by the O(ρ3) correction.
    const double variance = KSecond(log_mgf, 1e-9, theta_max);
    const double sigma = std::sqrt(std::fmax(variance, 0.0));
    if (sigma > 0.0) {
      const double z = (t - mean) / sigma;
      const double rho3 = StandardizedThirdCumulant(log_mgf, 0.0, theta_max);
      const double phi_z =
          std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
      const double p =
          1.0 - numeric::NormalCdf(z) + phi_z * (rho3 / 6.0) * (z * z - 1.0);
      result.probability = std::fmin(std::fmax(p, 0.0), 1.0);
    } else {
      result.probability = 1.0;
    }
    result.theta_hat = 0.0;
    result.converged = true;
    return result;
  }

  // Solve K'(θ̂) = t. K' is increasing (K convex); bracket and bisect.
  double lo = 1e-12;
  double hi = std::isfinite(theta_max) ? theta_max * (1.0 - 1e-9) : 1.0;
  if (!std::isfinite(theta_max)) {
    for (int i = 0; i < 200 && KPrime(log_mgf, hi, theta_max) < t; ++i) {
      hi *= 2.0;
    }
  }
  const auto slope_error = [&log_mgf, theta_max, t](double theta) {
    return KPrime(log_mgf, theta, theta_max) - t;
  };
  if (slope_error(hi) < 0.0) {
    // t beyond the reachable slope (can only happen from numerical noise
    // at the domain edge): the tail is effectively zero.
    result.probability = 0.0;
    result.theta_hat = hi;
    result.converged = false;
    return result;
  }
  numeric::RootOptions options;
  options.x_tolerance = 1e-11;
  const numeric::RootResult root =
      numeric::Bisect(slope_error, lo, hi, options);
  const double theta_hat = root.x;

  const double k_hat = log_mgf(theta_hat);
  const double k2_hat = KSecond(log_mgf, theta_hat, theta_max);
  const double exponent =
      std::fmax(theta_hat * t - k_hat, 0.0);  // Legendre transform >= 0
  if (k2_hat <= 0.0) {
    result.probability = 0.5;
    result.theta_hat = theta_hat;
    result.converged = false;
    return result;
  }
  const double w = std::sqrt(2.0 * exponent);
  const double u = theta_hat * std::sqrt(k2_hat);
  const double phi = std::exp(-0.5 * w * w) / std::sqrt(2.0 * M_PI);
  double probability;
  if (w < 1e-3 || u < 1e-3) {
    // θ̂ → 0 (t ≈ E[T]): ŵ and û both vanish and the (1/ŵ - 1/û)
    // difference is a catastrophic cancellation of two huge reciprocals
    // whose true difference is O(1) — the direct formula then returns
    // 0/1 garbage after clamping. Substitute the standard limiting form:
    // expanding ŵ² = K''θ̂² + (2/3)K'''θ̂³ and û = θ̂√(K'' + K'''θ̂)
    // gives 1/ŵ - 1/û -> ρ3/6 with ρ3 = K'''/K''^{3/2}, so
    //   P[T >= t] -> 1 - Φ(ŵ) - φ(ŵ)·ρ3/6
    // (= 1/2 - ρ3/(6√(2π)) exactly at the mean).
    const double rho3 = StandardizedThirdCumulant(log_mgf, theta_hat,
                                                  theta_max);
    probability = 1.0 - numeric::NormalCdf(w) - phi * (rho3 / 6.0);
  } else {
    probability = 1.0 - numeric::NormalCdf(w) - phi * (1.0 / w - 1.0 / u);
  }
  probability = std::fmin(std::fmax(probability, 0.0), 1.0);

  result.probability = probability;
  result.theta_hat = theta_hat;
  result.converged = root.converged;
  return result;
}

SaddlepointResult SaddlepointLateProbability(const ServiceTimeModel& model,
                                             int n, double t) {
  ZS_CHECK_GT(n, 0);
  ZS_CHECK_GT(t, 0.0);
  const auto log_mgf = [&model, n](double theta) {
    return model.LogMgf(n, theta);
  };
  return SaddlepointTailProbability(log_mgf, model.theta_max(), t);
}

int SaddlepointMaxStreams(const ServiceTimeModel& model, double t,
                          double delta, int n_cap) {
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [&](int n) {
      return SaddlepointLateProbability(model, n, t).probability;
    };
  });
}

}  // namespace zonestream::core
