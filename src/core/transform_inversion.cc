#include "core/transform_inversion.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "core/admission.h"
#include "numeric/quadrature.h"

namespace zonestream::core {

double GilPelaezTailProbability(
    const std::function<std::complex<double>(double)>& cf, double t,
    const InversionOptions& options) {
  ZS_CHECK_GT(t, 0.0);
  ZS_CHECK_GT(options.points_per_period, 0);
  // Integrand g(u) = Im(e^{-iut} φ(u)) / u; finite at u -> 0 with limit
  // E[T] - t. Integrate per oscillation period 2π/t with Gauss-Legendre
  // (whose nodes avoid u = 0), stopping once several consecutive period
  // contributions are negligible.
  const auto integrand = [&cf, t](double u) {
    const std::complex<double> phase(std::cos(u * t), -std::sin(u * t));
    return (phase * cf(u)).imag() / u;
  };
  const double period = 2.0 * M_PI / t;
  // Per-period quadrature. Adaptive Simpson (with a forced minimum depth)
  // rather than fixed-order Gauss: when t is small the oscillation period
  // is much longer than the characteristic function's own scale of
  // variation (~1/stddev), and a fixed rule across the whole period would
  // under-resolve the CF's structure.
  const int min_depth = options.points_per_period <= 8    ? 4
                        : options.points_per_period <= 16 ? 5
                                                          : 6;
  const auto integrate_period = [&integrand, min_depth](double a, double b) {
    return numeric::AdaptiveSimpson(integrand, a, b, /*abs_tol=*/1e-14,
                                    /*rel_tol=*/1e-10, /*max_depth=*/30,
                                    min_depth)
        .value;
  };
  // Partial sums over whole periods. For transforms with algebraic decay
  // (densities with jumps decay like 1/k^2 per period), the truncation
  // error of the partial sum behaves like c/K, which a Richardson step
  // S_inf ~ 2 S_K - S_{K/2} removes; smooth light-tailed transforms such
  // as the round service time decay superexponentially, making the
  // extrapolation a no-op (S_K == S_{K/2} to machine precision).
  std::vector<double> partial_sums;
  partial_sums.reserve(1024);
  double integral = 0.0;
  int quiet_periods = 0;
  for (int k = 0; k < options.max_periods; ++k) {
    // The integrand has a removable singularity at u = 0 (limit E[T] - t);
    // nudge the very first endpoint off zero instead of special-casing the
    // limit (the skipped sliver contributes O(1e-12) of one period).
    const double a =
        (k == 0) ? period * 1e-12 : k * period;
    const double b = (k + 1) * period;
    const double segment = integrate_period(a, b);
    integral += segment;
    partial_sums.push_back(integral);
    if (std::fabs(segment) < options.tail_tolerance) {
      if (++quiet_periods >= 5) break;
    } else {
      quiet_periods = 0;
    }
  }
  const size_t count = partial_sums.size();
  double extrapolated = integral;
  if (count >= 8) {
    extrapolated = 2.0 * partial_sums[count - 1] - partial_sums[count / 2 - 1];
  }
  const double tail = 0.5 + extrapolated / M_PI;
  return std::fmin(std::fmax(tail, 0.0), 1.0);
}

common::StatusOr<double> ExactLateProbability(
    const ServiceTimeModel& model, int n, double t,
    const InversionOptions& options) {
  if (n <= 0) {
    return common::Status::InvalidArgument("n must be positive");
  }
  if (!(t > 0.0) || !std::isfinite(t)) {
    return common::Status::InvalidArgument("t must be positive and finite");
  }
  if (!model.has_cf()) {
    return common::Status::FailedPrecondition(
        "transfer model exposes no characteristic function");
  }
  const auto cf = [&model, n](double u) {
    return model.CharacteristicFunction(n, u);
  };
  return GilPelaezTailProbability(cf, t, options);
}

common::StatusOr<int> ExactMaxStreams(const ServiceTimeModel& model, double t,
                                      double delta, int n_cap) {
  if (!model.has_cf()) {
    return common::Status::FailedPrecondition(
        "transfer model exposes no characteristic function");
  }
  if (ValidateAdmissionQuery(t, delta) == AdmissionQueryError::kOk &&
      delta < kExactMaxStreamsMinTolerance) {
    return common::Status::OutOfRange(
        "tolerance below the inversion's noise floor (1e-4); use the "
        "Chernoff limit (MaxStreamsByLateProbability) or the saddlepoint "
        "limit (SaddlepointMaxStreams)");
  }
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [&](int n) { return ExactLateProbability(model, n, t).value(); };
  });
}

}  // namespace zonestream::core
