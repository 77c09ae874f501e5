// The round service-time model (§3.1/§3.2): distribution of the total
// service time T_N for one SCAN round with N requests,
//
//   T_N = SEEK(N) + Σ_{i=1..N} T_rot,i + Σ_{i=1..N} T_trans,i
//
// with SEEK(N) the Oyang worst case (a constant once N is fixed),
// T_rot,i ~ U(0, ROT) i.i.d., and T_trans,i i.i.d. from a TransferModel.
// The model exposes the cumulant generating function of T_N and the
// Chernoff bound b_late(N, t) >= p_late(N, t) = P[T_N >= t].
#ifndef ZONESTREAM_CORE_SERVICE_TIME_MODEL_H_
#define ZONESTREAM_CORE_SERVICE_TIME_MODEL_H_

#include <memory>

#include "common/status.h"
#include "core/chernoff.h"
#include "core/seek_bound_bachmat.h"
#include "core/transfer_models.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"
#include "workload/size_distribution.h"

namespace zonestream::core {

// Summary moments of T_N (used by the CLT / Chebyshev baselines).
struct ServiceTimeMoments {
  double mean_s = 0.0;
  double variance_s2 = 0.0;
};

// Immutable per-disk analytic model. Thread-compatible: all methods are
// const and stateless.
class ServiceTimeModel {
 public:
  // §3.1 conventional-disk model: one fixed transfer rate. The transfer
  // time is Gamma with moments scaled from the fragment-size moments.
  static common::StatusOr<ServiceTimeModel> ForConventionalDisk(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      double mean_size_bytes, double variance_size_bytes2);

  // §3.1 variant taking transfer-time moments directly (the paper's worked
  // example specifies E[T_trans] and Var[T_trans] rather than a rate).
  static common::StatusOr<ServiceTimeModel> FromTransferMoments(
      const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
      double mean_transfer_s, double variance_transfer_s2);

  // §3.2 multi-zone model: transfer time moment-matched to the zone
  // mixture (the paper's approach).
  static common::StatusOr<ServiceTimeModel> ForMultiZoneDisk(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      double mean_size_bytes, double variance_size_bytes2);

  // Extension: any TransferModel (e.g. the exact zone mixture transform).
  static common::StatusOr<ServiceTimeModel> WithTransferModel(
      const disk::SeekTimeModel& seek, int cylinders, double rotation_time_s,
      std::shared_ptr<const TransferModel> transfer);

  // Oyang worst-case total seek time SEEK(n) for a round with n requests.
  // Always the equidistant worst case, regardless of seek_bound_kind()
  // (the deterministic budget; the Bachmat refinement only sharpens the
  // MGF-level term, see SeekLogMgf).
  double SeekBound(int n) const;

  // Seek component of the round log-MGF at θ. Equidistant mode charges
  // the deterministic θ·SEEK(n); Bachmat mode charges the distributional
  // bound min(θ·SEEK(n), BachmatSeekLogMgf(n, θ)) — never looser, and
  // valid under uniform random placement (see seek_bound_bachmat.h).
  double SeekLogMgf(int n, double theta) const;

  // Copy of this model charging `kind` as its seek term. Cheap (the
  // transfer model is shared).
  ServiceTimeModel WithSeekBound(SeekBoundKind kind) const;

  SeekBoundKind seek_bound_kind() const { return seek_bound_kind_; }

  // Cumulant generating function log E[e^{θ T_n}] (eq. 3.1.4 at s = -θ).
  // Requires 0 <= θ < theta_max().
  double LogMgf(int n, double theta) const;

  // The n-independent per-request component of LogMgf: the sum of the
  // rotational-latency and transfer log-MGFs at θ, so that
  // LogMgf(n, θ) = θ·SEEK(n) + n·PerRequestLogMgf(θ). Exposed so scan
  // evaluators (LateBoundScan) can memoize it across candidate n.
  double PerRequestLogMgf(double theta) const;

  // Supremum of the admissible θ domain (the transfer model's).
  double theta_max() const { return transfer_->theta_max(); }

  // Chernoff bound b_late(n, t) on P[T_n >= t] (eqs. 3.1.5/3.1.6, 3.2.12).
  // `options` tunes the minimization (warm-start hints for scans over n).
  ChernoffResult LateBound(int n, double t,
                           const ChernoffOptions& options = {}) const;

  // Mean/variance of T_n. Exact in equidistant mode; in Bachmat mode the
  // seek contribution is the expected uniform-placement seek total with
  // the negative-association variance bound (see seek_bound_bachmat.h).
  ServiceTimeMoments Moments(int n) const;

  // Component accessors.
  double rotation_time() const { return rotation_time_s_; }
  int cylinders() const { return cylinders_; }
  const TransferModel& transfer_model() const { return *transfer_; }
  const disk::SeekTimeModel& seek_model() const { return seek_; }

 private:
  ServiceTimeModel(const disk::SeekTimeModel& seek, int cylinders,
                   double rotation_time_s,
                   std::shared_ptr<const TransferModel> transfer);

  // log of the uniform-rotational-latency MGF, log((e^x - 1)/x) at
  // x = θ·ROT, evaluated stably for small and large x.
  double RotationLogMgf(double theta) const;

  disk::SeekTimeModel seek_;
  int cylinders_;
  double rotation_time_s_;
  std::shared_ptr<const TransferModel> transfer_;
  SeekBoundKind seek_bound_kind_ = SeekBoundKind::kEquidistant;
};

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_SERVICE_TIME_MODEL_H_
