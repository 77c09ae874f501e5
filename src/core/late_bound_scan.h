// Warm-started, memoizing evaluator for admission scans of b_late(n, t)
// over ascending multiprogramming levels n (§3.1.7, §5).
//
// The admission-limit searches in admission.cc evaluate the Chernoff bound
// for n = 1, 2, ... until the tolerance breaks. Three observations make
// that scan much cheaper than n independent cold minimizations:
//   1. θ*(n) drifts slowly with n, so θ*(n−1) warm-starts the n-th
//      minimization with a narrow bracket (ChernoffOptions::theta_hint).
//   2. SEEK(n) is recomputed by every exponent evaluation of the n-th
//      minimization but only depends on n — memoize it.
//   3. The rotational+transfer log-MGF component is n-independent, so any
//      θ the minimizer revisits across scan steps (bracket probes at the
//      previous θ*) is served from a per-θ memo. This matters most for
//      transfer models with expensive log-MGFs (zone mixtures).
// Warm and cold scans minimize the same convex exponent to the same
// tolerance, so their bounds agree to ~1e-12 (see late_bound_scan_test).
#ifndef ZONESTREAM_CORE_LATE_BOUND_SCAN_H_
#define ZONESTREAM_CORE_LATE_BOUND_SCAN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/chernoff.h"
#include "core/service_time_model.h"

namespace zonestream::core {

// One scan's worth of evaluation state. Not thread-safe; scans are cheap
// to construct, so use one per thread (they are pure functions of
// (model, t), which keeps parallel admission builds deterministic).
class LateBoundScan {
 public:
  // The scan borrows `model`; the caller keeps it alive. `warm_start`
  // false disables the θ-hint (every step minimizes cold) — the memoized
  // values are exact either way, so this exists as the reference the
  // tests compare the warm scan against.
  LateBoundScan(const ServiceTimeModel* model, double t,
                bool warm_start = true);

  // b_late(n, t). Intended to be called with ascending n (hints then carry
  // from n−1 to n), but correct for any order.
  ChernoffResult LateBound(int n);

  const ServiceTimeModel& model() const { return *model_; }
  double round_length() const { return t_; }

 private:
  // Direct-mapped per-θ memo for the n-independent log-MGF component. The
  // minimizer revisits exact θ bit patterns only a few times per scan step
  // (the warm-start probes at the previous θ*), so the cache must cost
  // almost nothing on a miss: a fixed array with overwrite-on-collision —
  // no allocation, no rehash — rather than a node-based map whose
  // per-insert allocation would eat the savings.
  struct ThetaEntry {
    uint64_t key;  // θ bit pattern; kEmptyThetaKey (a NaN) = unused slot
    double value;  // PerRequestLogMgf(θ)
  };
  static constexpr size_t kThetaCacheSize = 256;  // power of two

  double CachedSeekBound(int n);
  double CachedPerRequestLogMgf(double theta);

  const ServiceTimeModel* model_;
  double t_;
  bool warm_start_;
  double theta_hint_ = 0.0;         // θ* of the previous scan step
  std::vector<double> seek_cache_;  // SEEK(n), NaN = not yet computed
  std::array<ThetaEntry, kThetaCacheSize> per_theta_;
};

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_LATE_BOUND_SCAN_H_
