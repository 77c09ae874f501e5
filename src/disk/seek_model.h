// Seek-time model (§3.1, after [RW94] / [Oya95]).
//
// Seek time is proportional to the square root of the seek distance for
// short seeks (the acceleration-dominated regime) and linear for long
// seeks (the coast-dominated regime):
//
//   seek(d) = a_sqrt + b_sqrt * sqrt(d)   for 0 < d < d_threshold
//   seek(d) = a_lin  + b_lin  * d         for d >= d_threshold
//   seek(0) = 0
#ifndef ZONESTREAM_DISK_SEEK_MODEL_H_
#define ZONESTREAM_DISK_SEEK_MODEL_H_

#include <cmath>

#include "common/status.h"

namespace zonestream::disk {

// Coefficients of the two-regime seek-time function; times in seconds,
// distances in cylinders.
struct SeekParameters {
  double sqrt_intercept_s = 0.0;   // a_sqrt
  double sqrt_coefficient = 0.0;   // b_sqrt (seconds per sqrt(cylinder))
  double linear_intercept_s = 0.0; // a_lin
  double linear_coefficient = 0.0; // b_lin (seconds per cylinder)
  int threshold_cylinders = 0;     // d_threshold
};

// Immutable seek-time function.
class SeekTimeModel {
 public:
  // Validates coefficients (positive, threshold inside the disk) and
  // builds the model.
  static common::StatusOr<SeekTimeModel> Create(const SeekParameters& params);

  const SeekParameters& params() const { return params_; }

  // Seek time for a distance of `distance` cylinders; 0 for distance <= 0
  // (no head movement). Inline: the simulation kernel calls this once per
  // request per round, and the short-seek sqrt regime dominates SCAN
  // sweeps (consecutive requests are cylinder-adjacent).
  double SeekTime(double distance) const {
    if (distance <= 0.0) return 0.0;
    if (distance < params_.threshold_cylinders) {
      return params_.sqrt_intercept_s +
             params_.sqrt_coefficient * std::sqrt(distance);
    }
    return params_.linear_intercept_s + params_.linear_coefficient * distance;
  }

  // Full-stroke seek time, seek(max_distance). The deterministic worst-case
  // baseline (eq. 4.1) uses this as T_seek^max.
  double MaxSeekTime(int total_cylinders) const;

  // A concave majorant g >= SeekTime on [0, inf), fixed by Create: the
  // sqrt regime's curve g(d) = a_sqrt + b_sqrt * sqrt(d) up to a knee d1,
  // then its tangent line at d1. The knee is the largest point whose
  // tangent clears the linear regime: d1 = min(d_threshold,
  // (b_sqrt / (2 b_lin))^2, r^2), r the smaller root of
  // b_sqrt r^2 - 2 (a_lin + b_lin d_threshold - a_sqrt) r
  // + b_sqrt d_threshold = 0 (the tangent meets the linear regime at the
  // threshold; no real root sets no limit), shrunk by a relative 1e-9 so
  // the float coefficients keep it a majorant. With b_sqrt = 0 the sqrt
  // regime is the constant a_sqrt and g is the line
  // max(a_sqrt, a_lin) + b_lin * d. None of the presets' curves is itself
  // concave (the linear regime starts steeper than the sqrt curve ends, or
  // steps), but by Jensen any n seeks of total distance D take at most
  // n * g(D / n) (sched::Arm::ServeCertified).
  double SeekTimeMajorant(double distance) const {
    if (distance <= majorant_knee_) {
      return params_.sqrt_intercept_s +
             params_.sqrt_coefficient *
                 std::sqrt(distance > 0.0 ? distance : 0.0);
    }
    return majorant_intercept_ + majorant_slope_ * distance;
  }

 private:
  SeekTimeModel() = default;
  SeekParameters params_;
  // The majorant's knee d1 and its tangent line intercept + slope * d.
  double majorant_knee_ = 0.0;
  double majorant_slope_ = 0.0;
  double majorant_intercept_ = 0.0;
};

}  // namespace zonestream::disk

#endif  // ZONESTREAM_DISK_SEEK_MODEL_H_
