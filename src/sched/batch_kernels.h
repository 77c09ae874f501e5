// Wide element-wise kernels for the batched SCAN sweep (sched/scan_kernel.h).
//
// The sweep's clock chain (a strictly-ordered prefix sum with a
// deadline compare per request) cannot vectorize without changing
// floating-point results, but the two expensive per-request terms that
// feed it can: the transfer time (one double division each) and the
// seek time (a piecewise sqrt/linear curve) depend only on their own
// request, so both evaluate 4 or 8 lanes at a time before the scalar
// walk. Every wide operation (divide, sqrt, multiply, add) is IEEE
// correctly rounded and applied in the scalar expression order, and the
// piecewise branches become per-lane blends of two fully-evaluated
// regimes — so the lanes are bit-identical to the scalar loop on every
// SIMD tier, and the golden round traces hold on any host.
#ifndef ZONESTREAM_SCHED_BATCH_KERNELS_H_
#define ZONESTREAM_SCHED_BATCH_KERNELS_H_

#include <cstddef>

#include "disk/seek_model.h"
#include "sched/scan_kernel.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace zonestream::sched::internal {

// out[i] = bytes[i] / rate_bps[i].
void TransferTimes(const double* bytes, const double* rate_bps, double* out,
                   size_t n);

// out[i] = seek.SeekTime(distance[i]); distances in cylinders (already
// non-negative in the sweep, but <= 0 maps to 0 exactly as the scalar
// model does).
void SeekTimes(const disk::SeekTimeModel& seek, const double* distance,
               double* out, size_t n);

// What the on-time certificate (sched::Arm::ServeCertified) reads of a
// batch: its cylinder range and sum_i rotation_s[i] + transfer_i, the
// transfer as the sweep forms it (bytes / rate_bps, or transfer_s). The
// sum's order differs by tier, which moves it by rounding only; the
// certificate's margin covers any order.
struct BatchSummary {
  int min_cylinder = 0;
  int max_cylinder = 0;
  double service_s = 0.0;
};
// Requires batch.n > 0.
BatchSummary SummarizeBatch(const ScanBatch& batch);

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
// SeekTimeModel::SeekTime on eight lanes of distances. Both regimes are
// evaluated for every lane and blended by the regime masks; each follows
// the scalar expression order (intercept + coefficient * f(distance)),
// so a lane equals the branch it took. Shared by SeekTimes and the fused
// sweep (scan_kernel.cc); a TU that calls it must compile with
// -ffp-contract=off, or GCC may fuse the multiply-add into FMA.
__attribute__((target("avx512f"))) inline __m512d SeekTimeAvx512(
    const disk::SeekParameters& p, __m512d d) {
  const __m512d shrt = _mm512_add_pd(
      _mm512_set1_pd(p.sqrt_intercept_s),
      _mm512_mul_pd(_mm512_set1_pd(p.sqrt_coefficient), _mm512_sqrt_pd(d)));
  const __m512d lng = _mm512_add_pd(
      _mm512_set1_pd(p.linear_intercept_s),
      _mm512_mul_pd(_mm512_set1_pd(p.linear_coefficient), d));
  const __mmask8 use_short = _mm512_cmp_pd_mask(
      d, _mm512_set1_pd(p.threshold_cylinders), _CMP_LT_OQ);
  const __mmask8 positive =
      _mm512_cmp_pd_mask(d, _mm512_setzero_pd(), _CMP_GT_OQ);
  return _mm512_maskz_mov_pd(positive,
                             _mm512_mask_blend_pd(use_short, lng, shrt));
}
#endif

}  // namespace zonestream::sched::internal

#endif  // ZONESTREAM_SCHED_BATCH_KERNELS_H_
