#include "disk/position_sampler.h"

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "numeric/simd.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define ZS_SIMD_X86 1
#endif

namespace zonestream::disk {

namespace {

// The sampler's columns, as raw pointers for the tier kernels.
struct Columns {
  size_t buckets;
  const double* threshold;
  const int32_t* alias;
  const int32_t* first_cylinder;
  const int32_t* last_offset;
  const double* cylinders;
  const double* rate_bps;
};

// The reference: AliasTable::Sample's expressions, then the offset clamp.
void SampleScalar(const Columns& col, const double* u_zone,
                  const double* u_cylinder, size_t n, int* zone, int* cylinder,
                  double* rate_bps) {
  for (size_t i = 0; i < n; ++i) {
    const double scaled = u_zone[i] * static_cast<double>(col.buckets);
    size_t bucket = static_cast<size_t>(scaled);
    if (bucket >= col.buckets) bucket = col.buckets - 1;
    const double fraction = scaled - static_cast<double>(bucket);
    const int z = fraction < col.threshold[bucket]
                      ? static_cast<int>(bucket)
                      : col.alias[bucket];
    int offset = static_cast<int>(u_cylinder[i] * col.cylinders[z]);
    if (offset > col.last_offset[z]) offset = col.last_offset[z];
    zone[i] = z;
    cylinder[i] = col.first_cylinder[z] + offset;
    if (rate_bps != nullptr) rate_bps[i] = col.rate_bps[z];
  }
}

#ifdef ZS_SIMD_X86

// 8 lanes in 64-bit integer lanes (AVX-512F has no 256-bit masked blends
// or stores without VL); the last, partial block runs masked.
__attribute__((target("avx512f,avx512dq"))) void SampleAvx512(
    const Columns& col, const double* u_zone, const double* u_cylinder,
    size_t n, int* zone, int* cylinder, double* rate_bps) {
  const __m512d buckets = _mm512_set1_pd(static_cast<double>(col.buckets));
  const __m512i last_bucket =
      _mm512_set1_epi64(static_cast<int64_t>(col.buckets) - 1);
  for (size_t i = 0; i < n; i += 8) {
    const size_t lanes = n - i < 8 ? n - i : 8;
    const __mmask8 live = static_cast<__mmask8>((1u << lanes) - 1u);
    const __m512d scaled =
        _mm512_mul_pd(_mm512_maskz_loadu_pd(live, u_zone + i), buckets);
    const __m512i bucket =
        _mm512_min_epu64(_mm512_cvttpd_epi64(scaled), last_bucket);
    const __m512d fraction =
        _mm512_sub_pd(scaled, _mm512_cvtepi64_pd(bucket));
    const __mmask8 own = _mm512_cmp_pd_mask(
        fraction, _mm512_i64gather_pd(bucket, col.threshold, 8), _CMP_LT_OQ);
    const __m512i alias =
        _mm512_cvtepi32_epi64(_mm512_i64gather_epi32(bucket, col.alias, 4));
    const __m512i z = _mm512_mask_blend_epi64(own, alias, bucket);

    const __m512i offset = _mm512_min_epi64(
        _mm512_cvttpd_epi64(
            _mm512_mul_pd(_mm512_maskz_loadu_pd(live, u_cylinder + i),
                          _mm512_i64gather_pd(z, col.cylinders, 8))),
        _mm512_cvtepi32_epi64(_mm512_i64gather_epi32(z, col.last_offset, 4)));
    const __m512i first = _mm512_cvtepi32_epi64(
        _mm512_i64gather_epi32(z, col.first_cylinder, 4));
    _mm512_mask_cvtepi64_storeu_epi32(zone + i, live, z);
    _mm512_mask_cvtepi64_storeu_epi32(cylinder + i, live,
                                      _mm512_add_epi64(first, offset));
    if (rate_bps != nullptr) {
      _mm512_mask_storeu_pd(rate_bps + i, live,
                            _mm512_i64gather_pd(z, col.rate_bps, 8));
    }
  }
}

#endif  // ZS_SIMD_X86

}  // namespace

ZonePositionSampler::ZonePositionSampler(const DiskGeometry& geometry)
    : ZonePositionSampler(geometry, geometry.zone_alias()) {}

ZonePositionSampler::ZonePositionSampler(const DiskGeometry& geometry,
                                         const AliasTable& zone_law) {
  ZS_CHECK_EQ(zone_law.size(), static_cast<size_t>(geometry.num_zones()));
  for (size_t b = 0; b < zone_law.size(); ++b) {
    threshold_.push_back(zone_law.threshold(b));
    alias_.push_back(zone_law.alias(b));
  }
  for (const ZoneInfo& zi : geometry.zones()) {
    first_cylinder_.push_back(zi.first_cylinder);
    last_offset_.push_back(zi.num_cylinders - 1);
    cylinders_.push_back(static_cast<double>(zi.num_cylinders));
    rate_bps_.push_back(zi.transfer_rate_bps);
  }
}

void ZonePositionSampler::Sample(const double* u_zone,
                                 const double* u_cylinder, size_t n,
                                 int* zone, int* cylinder,
                                 double* rate_bps) const {
  ZS_CHECK(!threshold_.empty());
  const Columns col{threshold_.size(),      threshold_.data(),
                    alias_.data(),          first_cylinder_.data(),
                    last_offset_.data(),    cylinders_.data(),
                    rate_bps_.data()};
#ifdef ZS_SIMD_X86
  if (numeric::ActiveSimdTier() == numeric::SimdTier::kAvx512) {
    SampleAvx512(col, u_zone, u_cylinder, n, zone, cylinder, rate_bps);
    return;
  }
#endif
  SampleScalar(col, u_zone, u_cylinder, n, zone, cylinder, rate_bps);
}

}  // namespace zonestream::disk
