// Speculative wide (SIMD) Marsaglia–Tsang Gamma sampling.
//
// The scalar batched sampler's rejection walk is inherently serial: how
// many engine words draw k consumes depends on whether draw k-1's
// candidates were accepted. The wide sampler breaks the dependence by
// SPECULATING: it peeks one window of engine words for the whole batch
// (Mt19937_64::PeekRaw — nothing is consumed; 2n + 16 words for n draws,
// at most kMaxPeek), evaluates eight (AVX-512) or four (AVX2) candidate
// draws at a time at whatever window offset the walk has reached,
// assuming each accepts on its first try with the nominal two words
// (ziggurat normal + squeeze uniform), and validates the assumption with
// vector compares: the scalar routine's squeeze plus a shape-aware second
// one proven to accept only what the exact log test accepts
// (random_simd.cc). A block whose live lanes all accept (~84% of 8-lane
// blocks at shape 4, up from ~46% on the first squeeze alone) stores its
// draws and moves past its words; otherwise the accepted prefix commits
// and the first deviating draw re-runs through the EXACT scalar routine
// (numeric/gamma_internal.h), reading the same window from the word the
// scalar walk would read. One AdvanceRaw at the end commits the words the
// walk read; a walk that outruns its window commits and peeks the next.
// A batch's last, partial block runs with its missing lanes masked off.
//
// The result is bit-identical to GammaBatchSampler::Fill's scalar loop —
// same values, same engine consumption — at any SIMD tier, because every
// wide operation is correctly rounded (mul/add/sub/div, exact u64→f64
// conversion, no FMA contraction) in the scalar evaluation order. The
// golden-regression and checkpoint tests therefore hold regardless of
// the host CPU (tests/sim/simd_kernel_test.cc, tests/numeric).
#ifndef ZONESTREAM_NUMERIC_RANDOM_SIMD_H_
#define ZONESTREAM_NUMERIC_RANDOM_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "numeric/gamma_internal.h"
#include "numeric/random.h"

namespace zonestream::numeric::internal {

// Fills out[0..n) with Gamma(d + 1/3, 1)-derived draws scaled by `scale`
// (the shape >= 1 Marsaglia–Tsang case), bit-identical to the scalar
// loop `out[i] = scale * MarsagliaTsangDraw(rng, t, d, c)`. Returns
// false — leaving the Rng untouched — when no SIMD tier is active or n
// is too small to profit (n < 8); the caller then runs the scalar loop.
bool GammaFillWide(Rng* rng, const ZigguratTables& t, double d, double c,
                   double scale, double* out, size_t n);

// The wide tiers' first-try verdict on candidate pairs: accept[i] is set
// when either squeeze accepts the normal deviate x[i] (|x[i]| below the
// ziggurat's base-strip edge, as every lane reaching the squeezes is)
// with squeeze uniform u[i] under the sampler constants (d, c). Every
// pair it accepts must pass the scalar routine's test, or the tiers
// would diverge; the tests check exactly that. Returns false, accept
// untouched, when no SIMD tier is active.
bool GammaSqueezeWide(double d, double c, const double* x, const double* u,
                      bool* accept, size_t n);

// Converts raw engine words to uniforms in [0, 1) — out[i] =
// double(raw[i] >> 11) * 2^-53, exactly the scalar conversion in
// Rng::FillUniform01 — on tiers with an exact wide u64 -> f64
// conversion (AVX-512DQ). Returns false, outputs untouched, when no
// such tier is active; the caller then runs the scalar loop.
bool UniformFromRawWide(const uint64_t* raw, double* out, size_t n);

// Affine variant matching Rng::FillUniform's scalar arithmetic:
// out[i] = lo + width * (double(raw[i] >> 11) * 2^-53), same operation
// order, no FMA contraction.
bool UniformAffineFromRawWide(const uint64_t* raw, double lo, double width,
                              double* out, size_t n);

}  // namespace zonestream::numeric::internal

#endif  // ZONESTREAM_NUMERIC_RANDOM_SIMD_H_
