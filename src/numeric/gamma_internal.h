// Shared internals of the batched Gamma sampler: the 128-layer ziggurat
// normal source and the scalar Marsaglia–Tsang rejection draw. Split out
// of random.cc so the speculative SIMD sampler (random_simd.cc) can fall
// back to the EXACT scalar routines — lane deviations must consume the
// engine word-for-word like the scalar path, or the sequences diverge.
//
// Both routines are templates over a word source: anything whose
// operator() yields the next raw 64-bit engine word. The scalar loop
// passes the engine itself (Mt19937_64); the wide sampler passes its
// window of peeked words, so a deviating lane's redraw reads the same
// words in the same order through the one scalar routine.
//
// Everything here is an implementation detail of GammaBatchSampler; do
// not call it directly.
#ifndef ZONESTREAM_NUMERIC_GAMMA_INTERNAL_H_
#define ZONESTREAM_NUMERIC_GAMMA_INTERNAL_H_

#include <cmath>
#include <cstdint>

namespace zonestream::numeric::internal {

// Standard-normal draws via Marsaglia–Tsang's 128-layer ziggurat: one
// 64-bit engine draw yields the layer index (low 7 bits) and the
// position uniform (high 53 bits, disjoint), and ~98.9% of draws accept
// with a single table compare — no log/sqrt on the common path, which is
// what makes the batched Gamma sampler cheap. The wedge (~1%) pays one
// exp; the tail (<0.03%) falls back to exponential rejection.
struct ZigguratTables {
  double x[129];  // layer right edges, x[0] = base strip edge, x[128] = 0
  double f[129];  // f[i] = exp(-x[i]^2 / 2)
};

const ZigguratTables& NormalZiggurat();

// Rng::Uniform01's conversion of one engine word to [0, 1).
inline double UniformFromWord(uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

template <typename Words>
inline double ZigguratNormal(Words& words, const ZigguratTables& t) {
  for (;;) {
    const uint64_t bits = words();
    const int i = static_cast<int>(bits & 127u);
    // Signed uniform in [-1, 1) from the high 53 bits (disjoint from the
    // layer bits).
    const double u =
        static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    const double x = u * t.x[i];
    if (std::abs(x) < t.x[i + 1]) return x;  // inside the layer: ~98.9%
    if (i == 0) {
      // Base-strip tail (|x| > r): exponential rejection.
      const double r = t.x[1];
      double xx;
      double yy;
      do {
        xx = -std::log(UniformFromWord(words())) / r;
        yy = -std::log(UniformFromWord(words()));
      } while (yy + yy < xx * xx);
      return u < 0.0 ? -(r + xx) : r + xx;
    }
    // Wedge between the layer cap and the density.
    if (t.f[i] + UniformFromWord(words()) * (t.f[i + 1] - t.f[i]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
  }
}

// One Marsaglia–Tsang Gamma(d + 1/3, 1) draw given cached (d, c).
template <typename Words>
inline double MarsagliaTsangDraw(Words& words, const ZigguratTables& t,
                                 double d, double c) {
  for (;;) {
    double x;
    double v;
    do {
      x = ZigguratNormal(words, t);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = UniformFromWord(words());
    const double x2 = x * x;
    // Cheap squeeze first, exact log acceptance second.
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}

}  // namespace zonestream::numeric::internal

#endif  // ZONESTREAM_NUMERIC_GAMMA_INTERNAL_H_
