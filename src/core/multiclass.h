// Heterogeneous stream classes (extension of §3).
//
// The paper's model assumes i.i.d. fragment sizes across the N streams of
// a round. Real servers mix classes — e.g. MPEG-2 video at 200 KB/round,
// audio at 16 KB/round, low-res previews — and §2.1 explicitly allows
// display bandwidth to vary across objects. The transform machinery
// extends naturally: with n_c streams of class c,
//
//   log M_{T}(θ) = θ·SEEK(Σ n_c) + (Σ n_c)·log M_rot(θ)
//                  + Σ_c n_c · log M_trans,c(θ)
//
// and the Chernoff bound applies unchanged. Admission becomes a region
// over class-count vectors rather than a single N_max.
//
// Per-stream glitch probabilities use the §3.3 argument (SCAN order is
// driven by the uniformly random positions, so the set of streams served
// late is exchangeable across ALL streams regardless of class); the
// k-subset service times are approximated by scaling every class count by
// k/N, which is exact in expectation.
#ifndef ZONESTREAM_CORE_MULTICLASS_H_
#define ZONESTREAM_CORE_MULTICLASS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/chernoff.h"
#include "core/service_time_model.h"
#include "core/transfer_models.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"

namespace zonestream::core {

// One stream class: a name plus the fragment-size statistics of its
// per-round requests.
struct StreamClass {
  std::string name;
  double mean_size_bytes = 0.0;
  double variance_size_bytes2 = 0.0;
};

// A class mix: counts[c] streams of class c (parallel to the model's
// class list). Missing trailing entries are treated as zero.
using ClassCounts = std::vector<int>;

// Analytic round service-time model for a heterogeneous mix of stream
// classes on one multi-zone disk. Immutable and thread-compatible.
class MultiClassServiceModel {
 public:
  // Builds per-class moment-matched Gamma transfer models against the
  // given multi-zone geometry (§3.2 moment matching per class).
  static common::StatusOr<MultiClassServiceModel> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      std::vector<StreamClass> classes);

  int num_classes() const { return static_cast<int>(classes_.size()); }
  const StreamClass& stream_class(int c) const;

  // Total streams in a mix.
  static int TotalStreams(const ClassCounts& counts);

  // Worst-case SCAN seek bound for the mix (depends only on the total).
  double SeekBound(const ClassCounts& counts) const;

  // log E[e^{θ T}] for the round serving `counts`.
  double LogMgf(const ClassCounts& counts, double theta) const;

  // Supremum of the admissible θ domain for the mix: the smallest
  // per-class α among classes present in the mix.
  double ThetaMax(const ClassCounts& counts) const;

  // Chernoff bound on P[T >= t] for the mix (eq. 3.1.5 generalized).
  ChernoffResult LateBound(const ClassCounts& counts, double t) const;

  // Mean/variance of the round service time for the mix.
  ServiceTimeMoments Moments(const ClassCounts& counts) const;

  // Bound on the probability that a given stream of the mix suffers a
  // glitch in one round (eq. 3.3.3 generalized; see the header comment
  // for the k-subset approximation).
  double GlitchBoundPerRound(const ClassCounts& counts, double t) const;

  // Bound on P[a stream suffers >= g glitches in m rounds] under the mix
  // (eq. 3.3.5 with the generalized b_glitch).
  double ErrorBound(const ClassCounts& counts, double t, int m, int g) const;

  // True iff the mix satisfies the per-round QoS contract
  // b_late(counts, t) <= delta.
  bool Admissible(const ClassCounts& counts, double t, double delta) const;

  // Largest additional count of class `class_index` admissible on top of
  // `base` under b_late <= delta (0 if none), by MaxStreamsWithin
  // (admission.h) with n_cap = `cap`: an invalid (t, delta) query returns
  // 0.
  int MaxAdditionalStreams(const ClassCounts& base, int class_index, double t,
                           double delta, int cap = 4096) const;

  // Capacity frontier for a two-class model: for each count n0 of class 0
  // from 0 up to its solo maximum, the largest admissible count of class 1.
  // Returns pairs (n0, max n1).
  std::vector<std::pair<int, int>> CapacityFrontier(double t,
                                                    double delta) const;

 private:
  MultiClassServiceModel(const disk::SeekTimeModel& seek, int cylinders,
                         double rotation_time_s,
                         std::vector<StreamClass> classes,
                         std::vector<GammaTransferModel> transfers);

  double RotationLogMgf(double theta) const;
  // log-MGF with fractional per-class counts (used by the k-subset
  // scaling in the glitch bound).
  double LogMgfFractional(const std::vector<double>& counts, double total,
                          double theta) const;
  ChernoffResult LateBoundFractional(const std::vector<double>& counts,
                                     double total, double t) const;

  disk::SeekTimeModel seek_;
  int cylinders_;
  double rotation_time_s_;
  std::vector<StreamClass> classes_;
  std::vector<GammaTransferModel> transfers_;
};

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_MULTICLASS_H_
