#include "numeric/log1p.h"

#include <bit>
#include <cassert>
#include <cfloat>
#include <cstdint>

#include "common/check.h"
#include "numeric/simd.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define ZS_SIMD_X86 1
#endif

namespace zonestream::numeric {

namespace {

// fdlibm's constants (s_log1p.c): ln 2 split so that k ln2_hi is exact
// for every k this domain reaches, and the minimax polynomial
// R(z) = z (Lp1 + z (Lp2 + ... + z Lp7)) ~ (log1p(f) - 2s) / s in
// z = s^2, s = f / (2 + f).
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLp1 = 0x1.5555555555593p-1;
constexpr double kLp2 = 0x1.999999997fa04p-2;
constexpr double kLp3 = 0x1.2492494229359p-2;
constexpr double kLp4 = 0x1.c71c51d8e78afp-3;
constexpr double kLp5 = 0x1.7466496cb03dep-3;
constexpr double kLp6 = 0x1.39a09d078c69fp-3;
constexpr double kLp7 = 0x1.2f112df3e5244p-3;

// fdlibm's k = 0 range ends at the high word 0x3fda827a (~0.41422).
constexpr double kCut = 0x1.a827ap-2;
constexpr uint64_t kMantissaMask = 0x000fffffffffffffull;
// sqrt(2)'s mantissa cut at fdlibm's 20 high bits: a mantissa at or
// above it is scaled into [sqrt(2)/2, 1), one below into [1, sqrt(2)).
constexpr uint64_t kSqrt2Mantissa = 0x0006a09e00000000ull;
constexpr uint64_t kOneExponent = 0x3ff0000000000000ull;
constexpr uint64_t kHalfExponent = 0x3fe0000000000000ull;
constexpr int64_t kExponentBias = 1023;

[[maybe_unused]] bool InDomain(double x) {
  return x >= 0.0 && x <= DBL_MAX;
}

#ifdef ZS_SIMD_X86

// ------------------------------ AVX-512 ------------------------------
// 8 lanes; the last, partial block runs masked. Skips the above-cut
// reduction (and its division) when no live lane needs it: its values
// are blended away on lanes below the cut.
__attribute__((target("avx512f,avx512dq")))
void TiltedUniformAvx512(const double* u, double expm1_tilt, double theta,
                         double* out, size_t n) {
  const __m512d scale = _mm512_set1_pd(expm1_tilt);
  const __m512d divisor = _mm512_set1_pd(theta);
  const __m512d cut = _mm512_set1_pd(kCut);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512i mantissa_mask = _mm512_set1_epi64(kMantissaMask);
  const __m512i sqrt2_mantissa = _mm512_set1_epi64(kSqrt2Mantissa);
  const __m512i one_exponent = _mm512_set1_epi64(kOneExponent);
  const __m512i half_exponent = _mm512_set1_epi64(kHalfExponent);
  const __m512i bias = _mm512_set1_epi64(kExponentBias);
  const __m512i one64 = _mm512_set1_epi64(1);
  for (size_t i = 0; i < n; i += 8) {
    const size_t lanes = n - i < 8 ? n - i : 8;
    const __mmask8 live = static_cast<__mmask8>((1u << lanes) - 1u);
    const __m512d x =
        _mm512_mul_pd(_mm512_maskz_loadu_pd(live, u + i), scale);
    __m512d f = x;
    __m512d k = _mm512_setzero_pd();
    __m512d c = _mm512_setzero_pd();
    const __mmask8 above = _mm512_cmp_pd_mask(x, cut, _CMP_GE_OQ) & live;
    if (above != 0) {
      const __m512d v = _mm512_add_pd(one, x);
      const __m512i bits = _mm512_castpd_si512(v);
      const __m512i e = _mm512_sub_epi64(_mm512_srli_epi64(bits, 52), bias);
      const __m512d correction = _mm512_mask_blend_pd(
          _mm512_cmpgt_epi64_mask(e, _mm512_setzero_si512()),
          _mm512_sub_pd(x, _mm512_sub_pd(v, one)),
          _mm512_sub_pd(one, _mm512_sub_pd(v, x)));
      const __m512i mantissa = _mm512_and_si512(bits, mantissa_mask);
      const __mmask8 upper =
          _mm512_cmpge_epi64_mask(mantissa, sqrt2_mantissa);
      const __m512i reduced = _mm512_or_si512(
          mantissa,
          _mm512_mask_blend_epi64(upper, one_exponent, half_exponent));
      f = _mm512_mask_blend_pd(
          above, x, _mm512_sub_pd(_mm512_castsi512_pd(reduced), one));
      k = _mm512_maskz_cvtepi64_pd(
          above, _mm512_mask_add_epi64(e, upper, e, one64));
      c = _mm512_maskz_div_pd(above, correction, v);
    }
    const __m512d hfsq = _mm512_mul_pd(_mm512_mul_pd(half, f), f);
    const __m512d s = _mm512_div_pd(f, _mm512_add_pd(two, f));
    const __m512d z = _mm512_mul_pd(s, s);
    __m512d r = _mm512_set1_pd(kLp7);
    r = _mm512_add_pd(_mm512_set1_pd(kLp6), _mm512_mul_pd(z, r));
    r = _mm512_add_pd(_mm512_set1_pd(kLp5), _mm512_mul_pd(z, r));
    r = _mm512_add_pd(_mm512_set1_pd(kLp4), _mm512_mul_pd(z, r));
    r = _mm512_add_pd(_mm512_set1_pd(kLp3), _mm512_mul_pd(z, r));
    r = _mm512_add_pd(_mm512_set1_pd(kLp2), _mm512_mul_pd(z, r));
    r = _mm512_add_pd(_mm512_set1_pd(kLp1), _mm512_mul_pd(z, r));
    r = _mm512_mul_pd(z, r);
    const __m512d tail = _mm512_add_pd(
        _mm512_mul_pd(s, _mm512_add_pd(hfsq, r)),
        _mm512_add_pd(_mm512_mul_pd(k, _mm512_set1_pd(kLn2Lo)), c));
    const __m512d result = _mm512_sub_pd(
        _mm512_mul_pd(k, _mm512_set1_pd(kLn2Hi)),
        _mm512_sub_pd(_mm512_sub_pd(hfsq, tail), f));
    _mm512_mask_storeu_pd(out + i, live, _mm512_div_pd(result, divisor));
  }
}

// ------------------------------- AVX2 --------------------------------
// 4 lanes; the tail shorter than a block runs the scalar loop. AVX2 has
// no 64-bit integer -> double conversion: k + 1023 (a small non-negative
// integer) is placed in 2^52's mantissa and 2^52 + 1023 subtracted, both
// exact.
__attribute__((target("avx2")))
size_t TiltedUniformAvx2(const double* u, double expm1_tilt, double theta,
                         double* out, size_t n) {
  const __m256d scale = _mm256_set1_pd(expm1_tilt);
  const __m256d divisor = _mm256_set1_pd(theta);
  const __m256d cut = _mm256_set1_pd(kCut);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256i mantissa_mask = _mm256_set1_epi64x(kMantissaMask);
  const __m256i below_sqrt2 = _mm256_set1_epi64x(kSqrt2Mantissa - 1);
  const __m256i one_exponent = _mm256_set1_epi64x(kOneExponent);
  const __m256i half_exponent = _mm256_set1_epi64x(kHalfExponent);
  const __m256i bias = _mm256_set1_epi64x(kExponentBias);
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256d biased52 = _mm256_set1_pd(0x1.0p52 + 1023.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(_mm256_loadu_pd(u + i), scale);
    __m256d f = x;
    __m256d k = _mm256_setzero_pd();
    __m256d c = _mm256_setzero_pd();
    const __m256d above = _mm256_cmp_pd(x, cut, _CMP_GE_OQ);
    if (_mm256_movemask_pd(above) != 0) {
      const __m256d v = _mm256_add_pd(one, x);
      const __m256i bits = _mm256_castpd_si256(v);
      // The biased exponent; x >= 0 leaves the sign bit clear.
      const __m256i field = _mm256_srli_epi64(bits, 52);
      const __m256d correction = _mm256_blendv_pd(
          _mm256_sub_pd(x, _mm256_sub_pd(v, one)),
          _mm256_sub_pd(one, _mm256_sub_pd(v, x)),
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(field, bias)));
      const __m256i mantissa = _mm256_and_si256(bits, mantissa_mask);
      const __m256i upper = _mm256_cmpgt_epi64(mantissa, below_sqrt2);
      const __m256i reduced = _mm256_or_si256(
          mantissa, _mm256_blendv_epi8(one_exponent, half_exponent, upper));
      // upper is all ones (-1) where the mantissa was scaled down.
      const __m256i k_field = _mm256_sub_epi64(field, upper);
      f = _mm256_blendv_pd(
          x, _mm256_sub_pd(_mm256_castsi256_pd(reduced), one), above);
      k = _mm256_and_pd(
          above,
          _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(k_field, exp52)),
                        biased52));
      c = _mm256_and_pd(above, _mm256_div_pd(correction, v));
    }
    const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(half, f), f);
    const __m256d s = _mm256_div_pd(f, _mm256_add_pd(two, f));
    const __m256d z = _mm256_mul_pd(s, s);
    __m256d r = _mm256_set1_pd(kLp7);
    r = _mm256_add_pd(_mm256_set1_pd(kLp6), _mm256_mul_pd(z, r));
    r = _mm256_add_pd(_mm256_set1_pd(kLp5), _mm256_mul_pd(z, r));
    r = _mm256_add_pd(_mm256_set1_pd(kLp4), _mm256_mul_pd(z, r));
    r = _mm256_add_pd(_mm256_set1_pd(kLp3), _mm256_mul_pd(z, r));
    r = _mm256_add_pd(_mm256_set1_pd(kLp2), _mm256_mul_pd(z, r));
    r = _mm256_add_pd(_mm256_set1_pd(kLp1), _mm256_mul_pd(z, r));
    r = _mm256_mul_pd(z, r);
    const __m256d tail = _mm256_add_pd(
        _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
        _mm256_add_pd(_mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)), c));
    const __m256d result = _mm256_sub_pd(
        _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi)),
        _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f));
    _mm256_storeu_pd(out + i, _mm256_div_pd(result, divisor));
  }
  return i;
}

#endif  // ZS_SIMD_X86

}  // namespace

double Log1p(double x) {
  assert(InDomain(x));
  double f = x;
  double k = 0.0;
  double c = 0.0;
  if (x >= kCut) {
    const double u = 1.0 + x;
    const uint64_t bits = std::bit_cast<uint64_t>(u);
    int64_t e = static_cast<int64_t>(bits >> 52) - kExponentBias;
    c = (e > 0 ? 1.0 - (u - x) : x - (u - 1.0)) / u;
    const uint64_t mantissa = bits & kMantissaMask;
    uint64_t reduced = mantissa | kOneExponent;
    if (mantissa >= kSqrt2Mantissa) {
      reduced = mantissa | kHalfExponent;
      ++e;
    }
    f = std::bit_cast<double>(reduced) - 1.0;
    k = static_cast<double>(e);
  }
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double r =
      z * (kLp1 +
           z * (kLp2 + z * (kLp3 + z * (kLp4 + z * (kLp5 + z * (kLp6 +
                                                                z * kLp7))))));
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + (k * kLn2Lo + c))) - f);
}

void TiltedUniformInverseCdf(const double* u, double expm1_tilt,
                             double theta, double* out, size_t n) {
  ZS_CHECK((u != nullptr && out != nullptr) || n == 0);
  assert(InDomain(expm1_tilt));
#ifndef NDEBUG
  for (size_t i = 0; i < n; ++i) assert(u[i] >= 0.0 && u[i] < 1.0);
#endif
  size_t done = 0;
#ifdef ZS_SIMD_X86
  switch (ActiveSimdTier()) {
    case SimdTier::kAvx512:
      TiltedUniformAvx512(u, expm1_tilt, theta, out, n);
      return;
    case SimdTier::kAvx2:
      done = TiltedUniformAvx2(u, expm1_tilt, theta, out, n);
      break;
    case SimdTier::kScalar:
    default:
      break;
  }
#endif
  for (size_t i = done; i < n; ++i) {
    out[i] = Log1p(u[i] * expm1_tilt) / theta;
  }
}

}  // namespace zonestream::numeric
