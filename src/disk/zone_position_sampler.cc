#include "disk/zone_position_sampler.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "numeric/simd.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define ZS_SIMD_X86 1
#endif

namespace zonestream::disk {

namespace {

// Laws of at most this many zones keep every column in registers on the
// AVX-512 tier; the columns are padded to it. Every preset has at most 30.
constexpr size_t kRegisterEntries = 32;

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

// A double column of up to kRegisterEntries entries in four registers.
// Lane k gets entry i[k] (i < 32): a two-register permute over entries
// 0-15 and one over 16-31, then a blend on index bit 4.
__attribute__((target("avx512f"))) inline __m512d PickDouble(
    const __m512d* column, __m512i i) {
  const __m512d low = _mm512_permutex2var_pd(column[0], i, column[1]);
  const __m512d high = _mm512_permutex2var_pd(column[2], i, column[3]);
  return _mm512_mask_blend_pd(
      _mm512_test_epi64_mask(i, _mm512_set1_epi64(16)), low, high);
}

// An int32 column of up to kRegisterEntries entries in two registers. The
// 32-bit permute reads five index bits, so one permute reaches all 32
// entries; element 2k takes lane k's index, and the mask keeps that low
// half (every int column holds non-negative cylinders and zones).
__attribute__((target("avx512f"))) inline __m512i PickInt(
    const __m512i* column, __m512i i) {
  return _mm512_and_si512(_mm512_permutex2var_epi32(column[0], i, column[1]),
                          _mm512_set1_epi64(0xffffffffll));
}

// 8 lanes in 64-bit integer lanes (AVX-512F has no 256-bit masked blends
// or stores without VL); the last, partial block runs masked. Every
// column rides in registers, so a lane's zone and its zone's entries cost
// permutes, not gathers.
__attribute__((target("avx512f,avx512dq"))) void SampleAvx512(
    const Columns& col, const double* u_zone, const double* u_cylinder,
    size_t n, int* zone, int* cylinder, double* rate_bps) {
  __m512d threshold[4];
  __m512d cylinders[4];
  __m512d rate[4];
  for (int r = 0; r < 4; ++r) {
    threshold[r] = _mm512_loadu_pd(col.threshold + 8 * r);
    cylinders[r] = _mm512_loadu_pd(col.cylinders + 8 * r);
    rate[r] = _mm512_loadu_pd(col.rate_bps + 8 * r);
  }
  __m512i alias[2];
  __m512i first_cylinder[2];
  __m512i last_offset[2];
  for (int r = 0; r < 2; ++r) {
    alias[r] = _mm512_loadu_si512(col.alias + 16 * r);
    first_cylinder[r] = _mm512_loadu_si512(col.first_cylinder + 16 * r);
    last_offset[r] = _mm512_loadu_si512(col.last_offset + 16 * r);
  }
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
        fraction, PickDouble(threshold, bucket), _CMP_LT_OQ);
    const __m512i z =
        _mm512_mask_blend_epi64(own, PickInt(alias, bucket), bucket);

    const __m512i offset = _mm512_min_epi64(
        _mm512_cvttpd_epi64(
            _mm512_mul_pd(_mm512_maskz_loadu_pd(live, u_cylinder + i),
                          PickDouble(cylinders, z))),
        PickInt(last_offset, z));
    _mm512_mask_cvtepi64_storeu_epi32(zone + i, live, z);
    _mm512_mask_cvtepi64_storeu_epi32(
        cylinder + i, live,
        _mm512_add_epi64(PickInt(first_cylinder, z), offset));
    if (rate_bps != nullptr) {
      _mm512_mask_storeu_pd(rate_bps + i, live, PickDouble(rate, z));
    }
  }
}

#endif  // ZS_SIMD_X86

// The geometry's own zone rates, the default law's rate column.
std::vector<double> OwnRates(const DiskGeometry& geometry) {
  std::vector<double> rates;
  for (const ZoneInfo& zi : geometry.zones()) {
    rates.push_back(zi.transfer_rate_bps);
  }
  return rates;
}

}  // namespace

ZonePositionSampler::ZonePositionSampler(const DiskGeometry& geometry)
    : ZonePositionSampler(geometry, geometry.zone_alias(),
                          OwnRates(geometry)) {}

ZonePositionSampler::ZonePositionSampler(
    const DiskGeometry& geometry, const AliasTable& zone_law,
    const std::vector<double>& zone_rate_bps)
    : zones_(zone_law.size()), rate_bps_(zone_rate_bps) {
  ZS_CHECK_EQ(zones_, static_cast<size_t>(geometry.num_zones()));
  ZS_CHECK_EQ(rate_bps_.size(), zones_);
  for (size_t b = 0; b < zones_; ++b) {
    threshold_.push_back(zone_law.threshold(b));
    alias_.push_back(zone_law.alias(b));
  }
  for (const ZoneInfo& zi : geometry.zones()) {
    first_cylinder_.push_back(zi.first_cylinder);
    last_offset_.push_back(zi.num_cylinders - 1);
    cylinders_.push_back(static_cast<double>(zi.num_cylinders));
  }
  // Entries past the last zone are loaded into the register tables but
  // never picked.
  if (zones_ < kRegisterEntries) {
    threshold_.resize(kRegisterEntries, 0.0);
    alias_.resize(kRegisterEntries, 0);
    first_cylinder_.resize(kRegisterEntries, 0);
    last_offset_.resize(kRegisterEntries, 0);
    cylinders_.resize(kRegisterEntries, 0.0);
    rate_bps_.resize(kRegisterEntries, 0.0);
  }
}

void ZonePositionSampler::Sample(const double* u_zone,
                                 const double* u_cylinder, size_t n,
                                 int* zone, int* cylinder,
                                 double* rate_bps) const {
  ZS_CHECK_GT(zones_, 0u);
  const Columns col{zones_,                 threshold_.data(),
                    alias_.data(),          first_cylinder_.data(),
                    last_offset_.data(),    cylinders_.data(),
                    rate_bps_.data()};
#ifdef ZS_SIMD_X86
  if (numeric::ActiveSimdTier() == numeric::SimdTier::kAvx512 &&
      zones_ <= kRegisterEntries) {
    SampleAvx512(col, u_zone, u_cylinder, n, zone, cylinder, rate_bps);
    return;
  }
#endif
  SampleScalar(col, u_zone, u_cylinder, n, zone, cylinder, rate_bps);
}

}  // namespace zonestream::disk
