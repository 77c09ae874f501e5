// The bitonic sorting network's layer schedule and its AVX-512 register
// form, shared by numeric::SortU32Network (sort_network.cc) and the fused
// SCAN sweep (sched/scan_kernel.cc), which sorts its keys without leaving
// registers. An implementation detail of those two; do not call it
// directly.
//
// For 32 keys every layer (k, j) is "compare lane g with lane g ^ j, keep
// the minimum at the ascending end": an in-register shuffle plus min/max
// plus a per-lane blend whose mask is a compile-time constant of the
// layer, or a bare cross-register min/max when j spans the register
// width. Direction of lane g follows the textbook recurrence:
// take-max(g) = ((g & j) != 0) XOR ((g & k) != 0).
#ifndef ZONESTREAM_NUMERIC_SORT_NETWORK_INTERNAL_H_
#define ZONESTREAM_NUMERIC_SORT_NETWORK_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace zonestream::numeric::internal {

struct BitonicLayer {
  int k = 0;
  int j = 0;
};

inline constexpr std::array<BitonicLayer, 15> kBitonicLayers = {
    {{2, 1},
     {4, 2},
     {4, 1},
     {8, 4},
     {8, 2},
     {8, 1},
     {16, 8},
     {16, 4},
     {16, 2},
     {16, 1},
     {32, 16},
     {32, 8},
     {32, 4},
     {32, 2},
     {32, 1}}};

constexpr bool BitonicTakeMax(int g, int k, int j) {
  return ((g & j) != 0) != ((g & k) != 0);
}

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)

// Per-layer 16-bit take-max masks for the two 16-lane registers.
constexpr std::array<std::array<uint16_t, 2>, 15> MakeBitonicMasks16() {
  std::array<std::array<uint16_t, 2>, 15> masks{};
  for (size_t layer = 0; layer < kBitonicLayers.size(); ++layer) {
    for (int reg = 0; reg < 2; ++reg) {
      uint16_t m = 0;
      for (int lane = 0; lane < 16; ++lane) {
        const int g = reg * 16 + lane;
        if (BitonicTakeMax(g, kBitonicLayers[layer].k,
                           kBitonicLayers[layer].j)) {
          m = static_cast<uint16_t>(m | (1u << lane));
        }
      }
      masks[layer][reg] = m;
    }
  }
  return masks;
}

inline constexpr std::array<std::array<uint16_t, 2>, 15> kBitonicMasks16 =
    MakeBitonicMasks16();

// Sorts the 32 unsigned keys held in *v0 (lanes 0-15) and *v1 (16-31)
// ascending across the pair.
__attribute__((target("avx512f"))) inline void BitonicSort32Avx512(
    __m512i* v0, __m512i* v1) {
  const __m512i iota =
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  __m512i a = *v0;
  __m512i b = *v1;
  for (size_t layer = 0; layer < kBitonicLayers.size(); ++layer) {
    const int j = kBitonicLayers[layer].j;
    if (j == 16) {
      // Lanes pair with the same position in the other register; at the
      // only such stage (k = 32) the low register keeps the minima.
      const __m512i mn = _mm512_min_epu32(a, b);
      const __m512i mx = _mm512_max_epu32(a, b);
      a = mn;
      b = mx;
    } else {
      const __m512i idx = _mm512_xor_si512(iota, _mm512_set1_epi32(j));
      const __m512i pa = _mm512_permutexvar_epi32(idx, a);
      const __m512i pb = _mm512_permutexvar_epi32(idx, b);
      a = _mm512_mask_blend_epi32(kBitonicMasks16[layer][0],
                                  _mm512_min_epu32(a, pa),
                                  _mm512_max_epu32(a, pa));
      b = _mm512_mask_blend_epi32(kBitonicMasks16[layer][1],
                                  _mm512_min_epu32(b, pb),
                                  _mm512_max_epu32(b, pb));
    }
  }
  *v0 = a;
  *v1 = b;
}

#endif  // ZS_SIMD_ENABLED && __x86_64__

}  // namespace zonestream::numeric::internal

#endif  // ZONESTREAM_NUMERIC_SORT_NETWORK_INTERNAL_H_
