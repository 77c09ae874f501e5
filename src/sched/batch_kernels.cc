#include "sched/batch_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

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

// Four accumulators, so the adds do not wait on one another.
template <typename Transfer>
double ServiceSumScalar(const double* rotation_s, size_t n,
                        Transfer transfer) {
  double sum[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) sum[i % 4] += rotation_s[i] + transfer(i);
  return (sum[0] + sum[1]) + (sum[2] + sum[3]);
}

BatchSummary SummarizeBatchScalar(const ScanBatch& batch) {
  BatchSummary summary;
  summary.min_cylinder = summary.max_cylinder = batch.cylinder[0];
  for (size_t i = 1; i < batch.n; ++i) {
    summary.min_cylinder = std::min(summary.min_cylinder, batch.cylinder[i]);
    summary.max_cylinder = std::max(summary.max_cylinder, batch.cylinder[i]);
  }
  if (batch.transfer_s != nullptr) {
    summary.service_s = ServiceSumScalar(
        batch.rotation_s, batch.n,
        [t = batch.transfer_s](size_t i) { return t[i]; });
  } else {
    summary.service_s = ServiceSumScalar(
        batch.rotation_s, batch.n,
        [b = batch.bytes, r = batch.rate_bps](size_t i) {
          return b[i] / r[i];
        });
  }
  return summary;
}

#ifdef ZS_SIMD_X86

// Sixteen cylinders and eight service terms a step, the last partial
// block masked (masked-off lanes load nothing and add 0 + 0 / 1).
__attribute__((target("avx512f"))) BatchSummary SummarizeBatchAvx512(
    const ScanBatch& batch) {
  const size_t n = batch.n;
  __m512i lo = _mm512_set1_epi32(INT32_MAX);
  __m512i hi = _mm512_set1_epi32(INT32_MIN);
  for (size_t i = 0; i < n; i += 16) {
    const size_t lanes = n - i < 16 ? n - i : 16;
    const __mmask16 live = static_cast<__mmask16>((1u << lanes) - 1u);
    const __m512i c = _mm512_maskz_loadu_epi32(live, batch.cylinder + i);
    lo = _mm512_mask_min_epi32(lo, live, lo, c);
    hi = _mm512_mask_max_epi32(hi, live, hi, c);
  }
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d sum = _mm512_setzero_pd();
  for (size_t i = 0; i < n; i += 8) {
    const size_t lanes = n - i < 8 ? n - i : 8;
    const __mmask8 live = static_cast<__mmask8>((1u << lanes) - 1u);
    const __m512d transfer =
        batch.transfer_s != nullptr
            ? _mm512_maskz_loadu_pd(live, batch.transfer_s + i)
            : _mm512_div_pd(_mm512_maskz_loadu_pd(live, batch.bytes + i),
                            _mm512_mask_loadu_pd(one, live,
                                                 batch.rate_bps + i));
    sum = _mm512_add_pd(
        sum, _mm512_add_pd(_mm512_maskz_loadu_pd(live, batch.rotation_s + i),
                           transfer));
  }
  BatchSummary summary;
  summary.min_cylinder = _mm512_reduce_min_epi32(lo);
  summary.max_cylinder = _mm512_reduce_max_epi32(hi);
  summary.service_s = _mm512_reduce_add_pd(sum);
  return summary;
}

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

BatchSummary SummarizeBatch(const ScanBatch& batch) {
#ifdef ZS_SIMD_X86
  if (numeric::ActiveSimdTier() == numeric::SimdTier::kAvx512) {
    return SummarizeBatchAvx512(batch);
  }
#endif
  return SummarizeBatchScalar(batch);
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
