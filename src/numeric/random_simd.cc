#include "numeric/random_simd.h"

#include <cmath>
#include <cstdint>

#include "numeric/simd.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define ZS_SIMD_X86 1
#endif

namespace zonestream::numeric::internal {

namespace {

// Shortest batch the wide tiers take. Below it the setup (the window's
// peek and commit, the table gathers, the verdict masks) costs more than
// the scalar draws it replaces: the media server's per-stream size runs
// are often a single draw, and `BM_DegradedRound/13` slowed ~40% when
// they went wide.
constexpr size_t kMinWideBatch = 8;

// Words a batch's window holds beyond the nominal two per draw: room for
// the extra words a few rejections read (about 0.06 per draw at shape 4)
// before the walk has to peek a second window.
constexpr size_t kWindowSlack = 16;

// Squeeze 2's per-call constants.
//
// Squeeze 1 is the scalar routine's own: u < 1 - 0.0331 x^4. It misses
// ~8% of lanes at shape 4, and each miss used to leave the vector path for
// the exact test's two logs. Squeeze 2 is shape-aware: with both, ~1.0%
// of lanes at shape 4 reach the exact test, ~0.8% of them (about 1/(36d))
// true rejections.
//
// Derivation. With y = c x and c^2 = 1/(9d), the exact test
// ln u < x^2/2 + d (1 - v + ln v), v = (1 + y)^3, reads ln u < d phi(y),
// phi(y) = 3 [ln(1 + y) - y + y^2/2 - y^3/3] <= 0. For y >= 0,
// ln(1 + y) minus its 4-term series has derivative y^4/(1 + y) >= 0, so
// phi(y) >= -3y^4/4. For -1/2 <= y < 0 and t = -y, the series remainder
// sum_{k>=5} t^k/k is at most t^5/(5(1 - t)) <= 2t^5/5, so
// phi(y) >= -3y^4/4 + 6y^5/5. Together
//   phi(y) >= y^4 (-3/4 + (6/5) min(y, 0))          for y >= -1/2,
// and since ln u <= u - 1, u < 1 + d y^4 (-3/4 + (6/5) min(y, 0)) implies
// the exact test accepts — in real arithmetic.
//
// Margin. The scalar test runs in doubles, so squeeze 2 accepts only
// below that bound minus `margin`, which must cover the rounding of the
// scalar test and of the bound itself. Write eps = 2^-53 and r for the
// ziggurat's base-strip edge: a lane reaching the squeezes has |x| < r
// < 3.45, so x^2/2 < 6, and d|y| = |x| sqrt(d)/3 < 1.15 sqrt(d). Where
// squeeze 2 can accept, d |phi| <= 1 and |y| < (4/(3d))^(1/4) <= 1.2
// (d >= 2/3), so |y| < 1.19 and |1 - (1 + y)^3| < 8|y|. Then, to first
// order in eps:
//   - c^2 9d = 1 + O(6 eps) and x*x round: <= 7 eps x^2/2 < 42 eps;
//   - v3 = (1 + y)^3 (1 + rho) with |rho| <= 8 eps, moving
//     d (1 - v3 + ln v3) by <= 8 eps d |1 - v3| <= 8 eps d |y| 8 < 74
//     eps sqrt(d); 1 - v3 rounds by at most a ninth of that;
//   - ln v3 (1 ulp) times d: <= 2 eps d 6|y| < 14 eps sqrt(d);
//   - the sum, the product by d and the final add: <= 8 eps;
//   - log u (1 ulp) against u - 1: <= 2 eps; the bound's own roundings:
//     <= 13 eps.
// The total stays below eps (65 + 97 sqrt(d)); margin = 2^-38 (1 + d c)
// = 2^15 eps (1 + sqrt(d)/3) covers it more than 28 times over, and
// sends a needless ~4e-12 (1 + sqrt(d)/3) of lanes to the exact test.
// tests/sim/simd_kernel_test.cc checks the combined verdict against the
// scalar test on a dense (x, u) grid around its acceptance boundary.
struct Squeeze2 {
  explicit Squeeze2(double d, double c)
      : one_minus_margin(1.0 - 0x1.0p-38 * (1.0 + d * c)),
        d_quartic(-0.75 * d),
        d_quintic(1.2 * d) {}
  double one_minus_margin;
  double d_quartic;  // d * -3/4
  double d_quintic;  // d * 6/5, applied to min(y, 0)
};

// The batch's engine words, peeked in one window (Mt19937_64::PeekRaw
// consumes nothing). The wide walk evaluates blocks at whatever offset it
// has reached; a deviating lane's exact scalar redraw reads on word by
// word through operator(), the word source of numeric/gamma_internal.h;
// Commit then advances the engine past exactly the words read. A walk
// that outruns the window (more rejections than the slack, or a batch
// longer than kMaxPeek words) commits what it read and peeks the next.
class WordWindow {
 public:
  WordWindow(Mt19937_64* engine, size_t words)
      : engine_(engine),
        size_(words < Mt19937_64::kMaxPeek ? words : Mt19937_64::kMaxPeek) {
    engine_->PeekRaw(words_, size_);
    // A block loads a whole block of words even when fewer lanes are
    // live; past the window's end those loads read this zero pad.
    for (size_t i = 0; i < kPad; ++i) words_[size_ + i] = 0;
  }

  uint64_t operator()() {
    if (pos_ == size_) Refill();
    return words_[pos_++];
  }

  // The walk's position, with at least k <= 2 * 8 words read ahead.
  const uint64_t* Reserve(size_t k) {
    if (size_ - pos_ < k) Refill();
    return words_ + pos_;
  }

  void Consume(size_t k) { pos_ += k; }

  void Commit() { engine_->AdvanceRaw(pos_); }

 private:
  static constexpr size_t kPad = 16;  // one 8-lane block's words

  void Refill() {
    engine_->AdvanceRaw(pos_);
    engine_->PeekRaw(words_, size_);
    pos_ = 0;
  }

  Mt19937_64* engine_;
  size_t size_;
  size_t pos_ = 0;
  alignas(64) uint64_t words_[Mt19937_64::kMaxPeek + kPad];
};

// The sampler constants every block reads.
struct GammaConstants {
  const ZigguratTables& t;
  double d;
  double c;
  double scale;
  Squeeze2 s2;
};

// A block whose live lanes did not all accept on their first try, spilled
// for the walk. Lane j's nominal draw read words 2j (ziggurat) and 2j + 1
// (squeeze uniform); `nominal` marks lanes inside their ziggurat layer
// with v > 0, `squeeze` lanes either squeeze accepts.
struct SpilledLanes {
  unsigned nominal;
  unsigned squeeze;
  alignas(64) double v3[8];
  alignas(64) double u2[8];
  alignas(64) double x2[8];

  // Whether lane j accepts on its two nominal words: the scalar routine's
  // tests replayed on the lane values the vector stage computed
  // (bit-identical by construction).
  bool Accepts(size_t j, double d) const {
    const unsigned bit = 1u << j;
    if ((nominal & bit) == 0) return false;
    return (squeeze & bit) != 0 ||
           std::log(u2[j]) < 0.5 * x2[j] + d * (1.0 - v3[j] + std::log(v3[j]));
  }
};

// The speculative walk, shared by the tiers. Block::Try evaluates
// Block::kLanes candidate draws on the words at the walk's position;
// when every live lane accepts on its first try it stores their values
// and the walk moves past their words. Otherwise the accepted prefix
// commits and the first deviating draw re-runs through the exact scalar
// routine from the word the scalar walk would read there.
// always_inline: the walk must sit inside its tier's target function so
// Block::Try (compiled for that tier) can inline into it.
template <class Block>
__attribute__((always_inline)) inline void GammaWalk(
    Rng* rng, const GammaConstants& k, double* out, size_t n) {
  WordWindow words(&rng->engine(), 2 * n + kWindowSlack);
  SpilledLanes spilled;
  size_t produced = 0;
  while (produced < n) {
    const size_t live =
        n - produced < Block::kLanes ? n - produced : Block::kLanes;
    if (Block::Try(k, words.Reserve(2 * live), live, out + produced,
                   &spilled)) {
      words.Consume(2 * live);
      produced += live;
      continue;
    }
    size_t j = 0;
    for (; j < live && spilled.Accepts(j, k.d); ++j) {
      out[produced + j] = k.scale * (k.d * spilled.v3[j]);
    }
    words.Consume(2 * j);
    produced += j;
    if (j < live) {
      out[produced++] = k.scale * MarsagliaTsangDraw(words, k.t, k.d, k.c);
    }
  }
  words.Commit();
}

#ifdef ZS_SIMD_X86

// ------------------------------ AVX-512 ------------------------------
// 8 lanes. AVX-512DQ has native unsigned 64-bit -> double conversion,
// which is exact for the 53-bit values the sampler feeds it.

// Lanes whose (x, u2) either squeeze accepts; y = c x.
__attribute__((target("avx512f,avx512dq")))
inline __mmask8 SqueezesAvx512(const Squeeze2& s2, __m512d x, __m512d y,
                               __m512d u2) {
  const __m512d x2 = _mm512_mul_pd(x, x);
  const __m512d bound1 = _mm512_sub_pd(
      _mm512_set1_pd(1.0),
      _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.0331), x2), x2));
  const __m512d y2 = _mm512_mul_pd(y, y);
  const __m512d y4 = _mm512_mul_pd(y2, y2);
  const __m512d q = _mm512_add_pd(
      _mm512_set1_pd(s2.d_quartic),
      _mm512_mul_pd(_mm512_set1_pd(s2.d_quintic),
                    _mm512_min_pd(y, _mm512_setzero_pd())));
  const __m512d bound2 =
      _mm512_add_pd(_mm512_set1_pd(s2.one_minus_margin),
                    _mm512_mul_pd(q, y4));
  const __mmask8 in_range =
      _mm512_cmp_pd_mask(y, _mm512_set1_pd(-0.5), _CMP_GE_OQ);
  return _mm512_cmp_pd_mask(u2, bound1, _CMP_LT_OQ) |
         (in_range & _mm512_cmp_pd_mask(u2, bound2, _CMP_LT_OQ));
}

struct Avx512Block {
  static constexpr size_t kLanes = 8;

  __attribute__((target("avx512f,avx512dq"))) static bool Try(
      const GammaConstants& k, const uint64_t* w, size_t live, double* out,
      SpilledLanes* spilled) {
    const __mmask8 mask = static_cast<__mmask8>((1u << live) - 1u);
    const __m512i w0 = _mm512_loadu_si512(w);
    const __m512i w1 = _mm512_loadu_si512(w + 8);
    const __m512i bits = _mm512_permutex2var_epi64(
        w0, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), w1);
    const __m512i uw = _mm512_permutex2var_epi64(
        w0, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), w1);
    const __m512d one = _mm512_set1_pd(1.0);

    // Ziggurat candidate: layer i from the low 7 bits, position uniform
    // from the high 53 (exactly the scalar expressions).
    const __m512i iv = _mm512_and_si512(bits, _mm512_set1_epi64(127));
    const __m512d xi = _mm512_i64gather_pd(iv, k.t.x, 8);
    const __m512d xi1 = _mm512_i64gather_pd(
        _mm512_add_epi64(iv, _mm512_set1_epi64(1)), k.t.x, 8);
    const __m512d ud = _mm512_cvtepu64_pd(_mm512_srli_epi64(bits, 11));
    const __m512d u =
        _mm512_sub_pd(_mm512_mul_pd(ud, _mm512_set1_pd(0x1.0p-52)), one);
    const __m512d x = _mm512_mul_pd(u, xi);
    const __mmask8 zig = _mm512_cmp_pd_mask(
        _mm512_abs_pd(x), xi1, _CMP_LT_OQ);

    // Marsaglia–Tsang candidate: v = (1 + c x)^3, squeezed against the
    // second word's uniform.
    const __m512d y = _mm512_mul_pd(_mm512_set1_pd(k.c), x);
    const __m512d v = _mm512_add_pd(one, y);
    const __mmask8 vpos =
        _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_GT_OQ);
    const __m512d v3 = _mm512_mul_pd(_mm512_mul_pd(v, v), v);
    const __m512d u2 =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(uw, 11)),
                      _mm512_set1_pd(0x1.0p-53));
    const __mmask8 squeeze = SqueezesAvx512(k.s2, x, y, u2);

    if ((zig & vpos & squeeze & mask) == mask) {
      _mm512_mask_storeu_pd(
          out, mask,
          _mm512_mul_pd(_mm512_set1_pd(k.scale),
                        _mm512_mul_pd(_mm512_set1_pd(k.d), v3)));
      return true;
    }
    spilled->nominal = zig & vpos;
    spilled->squeeze = squeeze;
    _mm512_store_pd(spilled->v3, v3);
    _mm512_store_pd(spilled->u2, u2);
    _mm512_store_pd(spilled->x2, _mm512_mul_pd(x, x));
    return false;
  }
};

__attribute__((target("avx512f,avx512dq"))) void GammaFillAvx512(
    Rng* rng, const GammaConstants& k, double* out, size_t n) {
  GammaWalk<Avx512Block>(rng, k, out, n);
}

// ------------------------------- AVX2 --------------------------------
// 4 lanes. AVX2 lacks u64 -> f64 conversion; the 53-bit values convert
// exactly through a 32:21 split (each half converts exactly, and their
// recombination lo + hi * 2^32 is an exact integer sum below 2^53).
__attribute__((target("avx2")))
inline __m256d CvtU53ToPd(__m256i w) {
  const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffll);
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256d bias52 = _mm256_set1_pd(0x1.0p52);
  const __m256d two32 = _mm256_set1_pd(0x1.0p32);
  const __m256i lo = _mm256_and_si256(w, lo_mask);
  const __m256i hi = _mm256_srli_epi64(w, 32);
  const __m256d lod =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo, exp52)), bias52);
  const __m256d hid =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, exp52)), bias52);
  return _mm256_add_pd(lod, _mm256_mul_pd(hid, two32));
}

// Lanes whose (x, u2) either squeeze accepts, as a 4-bit mask; y = c x.
__attribute__((target("avx2")))
inline unsigned SqueezesAvx2(const Squeeze2& s2, __m256d x, __m256d y,
                             __m256d u2) {
  const __m256d x2 = _mm256_mul_pd(x, x);
  const __m256d bound1 = _mm256_sub_pd(
      _mm256_set1_pd(1.0),
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.0331), x2), x2));
  const __m256d y2 = _mm256_mul_pd(y, y);
  const __m256d y4 = _mm256_mul_pd(y2, y2);
  const __m256d q = _mm256_add_pd(
      _mm256_set1_pd(s2.d_quartic),
      _mm256_mul_pd(_mm256_set1_pd(s2.d_quintic),
                    _mm256_min_pd(y, _mm256_setzero_pd())));
  const __m256d bound2 =
      _mm256_add_pd(_mm256_set1_pd(s2.one_minus_margin),
                    _mm256_mul_pd(q, y4));
  const __m256d in_range =
      _mm256_cmp_pd(y, _mm256_set1_pd(-0.5), _CMP_GE_OQ);
  const __m256d accept = _mm256_or_pd(
      _mm256_cmp_pd(u2, bound1, _CMP_LT_OQ),
      _mm256_and_pd(in_range, _mm256_cmp_pd(u2, bound2, _CMP_LT_OQ)));
  return static_cast<unsigned>(_mm256_movemask_pd(accept));
}

struct Avx2Block {
  static constexpr size_t kLanes = 4;

  __attribute__((target("avx2"))) static bool Try(
      const GammaConstants& k, const uint64_t* w, size_t live, double* out,
      SpilledLanes* spilled) {
    // Lane j's words 2j and 2j + 1: the unpacks pair words (0, 4, 2, 6)
    // and (1, 5, 3, 7), and the permute restores lane order.
    const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
    const __m256i w1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4));
    const __m256i bits = _mm256_permute4x64_epi64(
        _mm256_unpacklo_epi64(w0, w1), _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i uw = _mm256_permute4x64_epi64(
        _mm256_unpackhi_epi64(w0, w1), _MM_SHUFFLE(3, 1, 2, 0));
    const __m256d one = _mm256_set1_pd(1.0);

    const __m256i iv = _mm256_and_si256(bits, _mm256_set1_epi64x(127));
    const __m256d xi = _mm256_i64gather_pd(k.t.x, iv, 8);
    const __m256d xi1 = _mm256_i64gather_pd(
        k.t.x, _mm256_add_epi64(iv, _mm256_set1_epi64x(1)), 8);
    const __m256d ud = CvtU53ToPd(_mm256_srli_epi64(bits, 11));
    const __m256d u =
        _mm256_sub_pd(_mm256_mul_pd(ud, _mm256_set1_pd(0x1.0p-52)), one);
    const __m256d x = _mm256_mul_pd(u, xi);
    const __m256d abs_x = _mm256_and_pd(
        x, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll)));
    const unsigned zig = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(abs_x, xi1, _CMP_LT_OQ)));

    const __m256d y = _mm256_mul_pd(_mm256_set1_pd(k.c), x);
    const __m256d v = _mm256_add_pd(one, y);
    const unsigned vpos = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ)));
    const __m256d v3 = _mm256_mul_pd(_mm256_mul_pd(v, v), v);
    const __m256d u2 = _mm256_mul_pd(CvtU53ToPd(_mm256_srli_epi64(uw, 11)),
                                     _mm256_set1_pd(0x1.0p-53));
    const unsigned squeeze = SqueezesAvx2(k.s2, x, y, u2);

    const unsigned mask = (1u << live) - 1u;
    if ((zig & vpos & squeeze & mask) == mask) {
      const __m256i live_lanes =
          _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(live)),
                             _mm256_setr_epi64x(0, 1, 2, 3));
      _mm256_maskstore_pd(
          out, live_lanes,
          _mm256_mul_pd(_mm256_set1_pd(k.scale),
                        _mm256_mul_pd(_mm256_set1_pd(k.d), v3)));
      return true;
    }
    spilled->nominal = zig & vpos;
    spilled->squeeze = squeeze;
    _mm256_store_pd(spilled->v3, v3);
    _mm256_store_pd(spilled->u2, u2);
    _mm256_store_pd(spilled->x2, _mm256_mul_pd(x, x));
    return false;
  }
};

__attribute__((target("avx2"))) void GammaFillAvx2(
    Rng* rng, const GammaConstants& k, double* out, size_t n) {
  GammaWalk<Avx2Block>(rng, k, out, n);
}

// The squeeze verdicts alone, for GammaSqueezeWide.
__attribute__((target("avx512f,avx512dq")))
void SqueezeVerdictsAvx512(const Squeeze2& s2, double c, const double* x,
                           const double* u, bool* accept, size_t n) {
  for (size_t i = 0; i < n; i += 8) {
    const size_t lanes = n - i < 8 ? n - i : 8;
    const __mmask8 live = static_cast<__mmask8>((1u << lanes) - 1u);
    const __m512d xv = _mm512_maskz_loadu_pd(live, x + i);
    const __m512d uv = _mm512_maskz_loadu_pd(live, u + i);
    const __mmask8 mask = SqueezesAvx512(
        s2, xv, _mm512_mul_pd(_mm512_set1_pd(c), xv), uv);
    for (size_t j = 0; j < lanes; ++j) accept[i + j] = (mask >> j) & 1u;
  }
}

__attribute__((target("avx2")))
void SqueezeVerdictsAvx2(const Squeeze2& s2, double c, const double* x,
                         const double* u, bool* accept, size_t n) {
  for (size_t i = 0; i < n; i += 4) {
    const size_t lanes = n - i < 4 ? n - i : 4;
    alignas(32) double xa[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double ua[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < lanes; ++j) {
      xa[j] = x[i + j];
      ua[j] = u[i + j];
    }
    const __m256d xv = _mm256_load_pd(xa);
    const unsigned mask = SqueezesAvx2(
        s2, xv, _mm256_mul_pd(_mm256_set1_pd(c), xv), _mm256_load_pd(ua));
    for (size_t j = 0; j < lanes; ++j) accept[i + j] = (mask >> j) & 1u;
  }
}

// Uniform conversion kernels: identical arithmetic to the scalar loops
// in Rng::FillUniform01 / Rng::FillUniform — srl 11, exact u64 -> f64
// conversion, multiply by 2^-53, then (affine case) multiply by the
// width and add the offset, each step correctly rounded with no FMA
// contraction — so the wide path is bit-identical by construction.
__attribute__((target("avx512f,avx512dq")))
void Uniform01FromRawAvx512(const uint64_t* raw, double* out, size_t n) {
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i bits =
        _mm512_srli_epi64(_mm512_loadu_si512(raw + i), 11);
    _mm512_storeu_pd(out + i,
                     _mm512_mul_pd(_mm512_cvtepu64_pd(bits), scale));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<double>(raw[i] >> 11) * 0x1.0p-53;
  }
}

__attribute__((target("avx512f,avx512dq")))
void UniformAffineFromRawAvx512(const uint64_t* raw, double lo, double width,
                                double* out, size_t n) {
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vwidth = _mm512_set1_pd(width);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i bits =
        _mm512_srli_epi64(_mm512_loadu_si512(raw + i), 11);
    const __m512d u = _mm512_mul_pd(_mm512_cvtepu64_pd(bits), scale);
    _mm512_storeu_pd(out + i, _mm512_add_pd(vlo, _mm512_mul_pd(vwidth, u)));
  }
  for (; i < n; ++i) {
    out[i] = lo + width * (static_cast<double>(raw[i] >> 11) * 0x1.0p-53);
  }
}

#endif  // ZS_SIMD_X86

}  // namespace

bool UniformFromRawWide(const uint64_t* raw, double* out, size_t n) {
#ifdef ZS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx512) {
    Uniform01FromRawAvx512(raw, out, n);
    return true;
  }
#else
  (void)raw;
  (void)out;
  (void)n;
#endif
  return false;
}

bool UniformAffineFromRawWide(const uint64_t* raw, double lo, double width,
                              double* out, size_t n) {
#ifdef ZS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx512) {
    UniformAffineFromRawAvx512(raw, lo, width, out, n);
    return true;
  }
#else
  (void)raw;
  (void)lo;
  (void)width;
  (void)out;
  (void)n;
#endif
  return false;
}

bool GammaFillWide(Rng* rng, const ZigguratTables& t, double d, double c,
                   double scale, double* out, size_t n) {
#ifdef ZS_SIMD_X86
  if (n < kMinWideBatch) return false;
  const GammaConstants k{t, d, c, scale, Squeeze2(d, c)};
  switch (ActiveSimdTier()) {
    case SimdTier::kAvx512:
      GammaFillAvx512(rng, k, out, n);
      return true;
    case SimdTier::kAvx2:
      GammaFillAvx2(rng, k, out, n);
      return true;
    case SimdTier::kScalar:
    default:
      return false;
  }
#else
  (void)rng;
  (void)t;
  (void)d;
  (void)c;
  (void)scale;
  (void)out;
  (void)n;
  return false;
#endif
}

bool GammaSqueezeWide(double d, double c, const double* x, const double* u,
                      bool* accept, size_t n) {
#ifdef ZS_SIMD_X86
  const Squeeze2 s2(d, c);
  switch (ActiveSimdTier()) {
    case SimdTier::kAvx512:
      SqueezeVerdictsAvx512(s2, c, x, u, accept, n);
      return true;
    case SimdTier::kAvx2:
      SqueezeVerdictsAvx2(s2, c, x, u, accept, n);
      return true;
    case SimdTier::kScalar:
    default:
      return false;
  }
#else
  (void)d;
  (void)c;
  (void)x;
  (void)u;
  (void)accept;
  (void)n;
  return false;
#endif
}

}  // namespace zonestream::numeric::internal
