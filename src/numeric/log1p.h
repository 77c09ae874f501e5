// log(1 + x) for the tilted-uniform inverse CDF, one algorithm on every
// SIMD tier.
//
// The importance sampler (sim/importance_sampling.h) draws rotational
// latencies and disturbance delays from the exponentially tilted uniform
// on [0, L], density ∝ e^{theta x}, by inverting its CDF:
//
//   r = log1p(u (e^{theta L} - 1)) / theta,   u in [0, 1).
//
// Log1p is fdlibm's s_log1p.c restricted to the arguments that inverse
// passes, finite x >= 0, which lets it drop fdlibm's special cases:
//   - below fdlibm's cut x < 0x1.a827ap-2 (~0.41422): k = 0, f = x, c = 0;
//   - above it: u = 1 + x, k = the exponent of u, the rounding correction
//     c = (k > 0 ? 1 - (u - x) : x - (u - 1)) / u, and u's mantissa scaled
//     into [sqrt(2)/2, sqrt(2)) (k += 1 when scaled down), f = u - 1;
//   - then s = f / (2 + f), z = s^2, R = z (Lp1 + z (Lp2 + ... + z Lp7))
//     and log1p(x) = k ln2_hi - ((f^2/2 - (s (f^2/2 + R) + (k ln2_lo + c)))
//     - f).
// fdlibm's |x| < 2^-29 shortcut and its |f| < 2^-20 branch are gone (the
// polynomial path stays within 1 ulp there), and from x >= 2^53 on
// c = (1 - (u - x)) / u, which is +-1/u (1 + x rounds to x or, at a tie
// below 2^54, to x + 2), where fdlibm uses 0. The result is within 1 ulp
// of glibc's log1p and of a long-double reference
// (tests/numeric/log1p_test.cc).
//
// TiltedUniformInverseCdf runs the same arithmetic on the active SIMD
// tier (numeric/simd.h): every operation is correctly rounded (add, sub,
// mul, div; k's conversion to double is exact), in the scalar order and
// without FMA contraction, so every tier is bit-identical to the scalar
// loop over Log1p (tests/sim/simd_kernel_test.cc).
#ifndef ZONESTREAM_NUMERIC_LOG1P_H_
#define ZONESTREAM_NUMERIC_LOG1P_H_

#include <cstddef>

namespace zonestream::numeric {

// log(1 + x) for finite x >= 0 (the domain is asserted in debug builds).
double Log1p(double x);

// out[i] = Log1p(u[i] * expm1_tilt) / theta for i in [0, n): the inverse
// CDF of the tilted uniform on [0, L] at the uniforms u[i] in [0, 1),
// given expm1_tilt = e^{theta L} - 1 (finite, >= 0). Bit-identical on
// every SIMD tier.
void TiltedUniformInverseCdf(const double* u, double expm1_tilt,
                             double theta, double* out, size_t n);

}  // namespace zonestream::numeric

#endif  // ZONESTREAM_NUMERIC_LOG1P_H_
