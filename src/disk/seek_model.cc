#include "disk/seek_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace zonestream::disk {

common::StatusOr<SeekTimeModel> SeekTimeModel::Create(
    const SeekParameters& params) {
  if (params.sqrt_intercept_s < 0.0 || params.sqrt_coefficient < 0.0 ||
      params.linear_intercept_s < 0.0 || params.linear_coefficient < 0.0) {
    return common::Status::InvalidArgument(
        "seek coefficients must be non-negative");
  }
  if (params.sqrt_coefficient == 0.0 && params.linear_coefficient == 0.0) {
    return common::Status::InvalidArgument(
        "seek time must depend on distance");
  }
  if (params.threshold_cylinders <= 0) {
    return common::Status::InvalidArgument(
        "sqrt/linear threshold must be positive");
  }
  SeekTimeModel model;
  model.params_ = params;
  const double a_sqrt = params.sqrt_intercept_s;
  const double b_sqrt = params.sqrt_coefficient;
  const double b_lin = params.linear_coefficient;
  const double threshold = params.threshold_cylinders;
  if (b_sqrt == 0.0) {
    // A flat sqrt regime has no tangent to take; the line with the linear
    // regime's slope through the higher intercept lies over both regimes.
    model.majorant_slope_ = b_lin;
    model.majorant_intercept_ =
        std::max(a_sqrt, params.linear_intercept_s);
    return model;
  }
  // The tangent at s^2 is a_sqrt + b_sqrt s / 2 + b_sqrt d / (2 s). It lies
  // over the sqrt regime on all of [0, d_threshold) for s^2 <= d_threshold,
  // is at least as steep as the linear regime for s <= b_sqrt / (2 b_lin),
  // and clears the linear regime at the threshold (hence beyond it) for s
  // at or below the smaller root of b_sqrt s^2 - 2 gap s + b_sqrt
  // d_threshold, gap = seek(d_threshold) - a_sqrt; the root is written as
  // the product of the roots (d_threshold) over the larger one.
  double s = std::sqrt(threshold);
  if (b_lin > 0.0) s = std::min(s, b_sqrt / (2.0 * b_lin));
  const double gap =
      params.linear_intercept_s + b_lin * threshold - a_sqrt;
  const double discriminant = gap * gap - b_sqrt * b_sqrt * threshold;
  if (gap > 0.0 && discriminant >= 0.0) {
    s = std::min(s, b_sqrt * threshold / (gap + std::sqrt(discriminant)));
  }
  // The limits above carry a few ulps of rounding, and the stored
  // coefficients a few more; a relative 1e-9 inside them leaves the tangent
  // clear of the linear regime in exact arithmetic on the stored values.
  s *= 1.0 - 1e-9;
  model.majorant_knee_ = s * s;
  model.majorant_slope_ = b_sqrt / (2.0 * s);
  model.majorant_intercept_ = a_sqrt + 0.5 * b_sqrt * s;
  return model;
}

double SeekTimeModel::MaxSeekTime(int total_cylinders) const {
  ZS_CHECK_GT(total_cylinders, 0);
  return SeekTime(static_cast<double>(total_cylinders));
}

}  // namespace zonestream::disk
