#include "sched/batch_kernels.h"

#include <cmath>
#include <cstddef>

#include "numeric/simd.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define ZS_SIMD_X86 1
#endif

namespace zonestream::sched::internal {
namespace {

void TransferTimesScalar(const double* bytes, const double* rate_bps,
                         double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = bytes[i] / rate_bps[i];
}

void SeekTimesScalar(const disk::SeekTimeModel& seek, const double* distance,
                     double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = seek.SeekTime(distance[i]);
}

#ifdef ZS_SIMD_X86

__attribute__((target("avx2"))) void TransferTimesAvx2(const double* bytes,
                                                       const double* rate_bps,
                                                       double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(bytes + i),
                                            _mm256_loadu_pd(rate_bps + i)));
  }
  for (; i < n; ++i) out[i] = bytes[i] / rate_bps[i];
}

__attribute__((target("avx512f"))) void TransferTimesAvx512(
    const double* bytes, const double* rate_bps, double* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, _mm512_div_pd(_mm512_loadu_pd(bytes + i),
                                            _mm512_loadu_pd(rate_bps + i)));
  }
  for (; i < n; ++i) out[i] = bytes[i] / rate_bps[i];
}

// Both regimes are evaluated for every lane and blended by the regime
// masks; each regime's arithmetic follows SeekTimeModel::SeekTime's
// expression order exactly (intercept + coefficient * f(distance), no
// FMA), so a lane's blended value equals the scalar branch it took.
__attribute__((target("avx2"))) void SeekTimesAvx2(
    const disk::SeekParameters& p, const double* distance, double* out,
    size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d threshold = _mm256_set1_pd(p.threshold_cylinders);
  const __m256d sqrt_b = _mm256_set1_pd(p.sqrt_intercept_s);
  const __m256d sqrt_c = _mm256_set1_pd(p.sqrt_coefficient);
  const __m256d lin_b = _mm256_set1_pd(p.linear_intercept_s);
  const __m256d lin_c = _mm256_set1_pd(p.linear_coefficient);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(distance + i);
    const __m256d shrt =
        _mm256_add_pd(sqrt_b, _mm256_mul_pd(sqrt_c, _mm256_sqrt_pd(d)));
    const __m256d lng = _mm256_add_pd(lin_b, _mm256_mul_pd(lin_c, d));
    const __m256d use_short = _mm256_cmp_pd(d, threshold, _CMP_LT_OQ);
    __m256d t = _mm256_blendv_pd(lng, shrt, use_short);
    const __m256d positive = _mm256_cmp_pd(d, zero, _CMP_GT_OQ);
    t = _mm256_and_pd(t, positive);
    _mm256_storeu_pd(out + i, t);
  }
  for (; i < n; ++i) {
    const double d = distance[i];
    if (d <= 0.0) {
      out[i] = 0.0;
    } else if (d < p.threshold_cylinders) {
      out[i] = p.sqrt_intercept_s + p.sqrt_coefficient * std::sqrt(d);
    } else {
      out[i] = p.linear_intercept_s + p.linear_coefficient * d;
    }
  }
}

__attribute__((target("avx512f"))) void SeekTimesAvx512(
    const disk::SeekParameters& p, const double* distance, double* out,
    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i,
                     SeekTimeAvx512(p, _mm512_loadu_pd(distance + i)));
  }
  for (; i < n; ++i) {
    const double d = distance[i];
    if (d <= 0.0) {
      out[i] = 0.0;
    } else if (d < p.threshold_cylinders) {
      out[i] = p.sqrt_intercept_s + p.sqrt_coefficient * std::sqrt(d);
    } else {
      out[i] = p.linear_intercept_s + p.linear_coefficient * d;
    }
  }
}

#endif  // ZS_SIMD_X86

}  // namespace

void TransferTimes(const double* bytes, const double* rate_bps, double* out,
                   size_t n) {
#ifdef ZS_SIMD_X86
  switch (numeric::ActiveSimdTier()) {
    case numeric::SimdTier::kAvx512:
      TransferTimesAvx512(bytes, rate_bps, out, n);
      return;
    case numeric::SimdTier::kAvx2:
      TransferTimesAvx2(bytes, rate_bps, out, n);
      return;
    case numeric::SimdTier::kScalar:
      break;
  }
#endif
  TransferTimesScalar(bytes, rate_bps, out, n);
}

void SeekTimes(const disk::SeekTimeModel& seek, const double* distance,
               double* out, size_t n) {
#ifdef ZS_SIMD_X86
  switch (numeric::ActiveSimdTier()) {
    case numeric::SimdTier::kAvx512:
      SeekTimesAvx512(seek.params(), distance, out, n);
      return;
    case numeric::SimdTier::kAvx2:
      SeekTimesAvx2(seek.params(), distance, out, n);
      return;
    case numeric::SimdTier::kScalar:
      break;
  }
#endif
  SeekTimesScalar(seek, distance, out, n);
}

}  // namespace zonestream::sched::internal
