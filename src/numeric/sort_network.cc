// Sorting networks over one padded 32-key block.
//
// Scalar tier: Batcher's odd-even mergesort network (191 compare-
// exchanges for n = 32), generated at compile time and fully unrolled —
// each compare-exchange compiles to cmp + two cmovs, so the whole sort
// retires with zero data-dependent branches.
//
// Vector tiers: the classic bitonic network over two 16-lane (or four
// 8-lane) registers; its layer schedule and AVX-512 form live in
// sort_network_internal.h, shared with the fused SCAN sweep.
#include "numeric/sort_network.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "numeric/simd.h"
#include "numeric/sort_network_internal.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace zonestream::numeric {
namespace {

constexpr int kBlock = 32;

// ---- Scalar: Batcher odd-even mergesort, compile-time generated ---------

struct CePair {
  uint8_t a = 0;
  uint8_t b = 0;
};

struct Network {
  std::array<CePair, 256> ce{};
  size_t count = 0;
};

constexpr Network MakeBatcher32() {
  Network net{};
  const int n = kBlock;
  for (int p = 1; p < n; p += p) {
    for (int k = p; k >= 1; k /= 2) {
      for (int j = k % p; j + k < n; j += 2 * k) {
        for (int i = 0; i < k; ++i) {
          if ((i + j) / (p + p) == (i + j + k) / (p + p)) {
            net.ce[net.count++] = {static_cast<uint8_t>(i + j),
                                   static_cast<uint8_t>(i + j + k)};
          }
        }
      }
    }
  }
  return net;
}

constexpr Network kNet32 = MakeBatcher32();
static_assert(kNet32.count == 191, "Batcher network for 32 keys has 191 CEs");

template <size_t I>
inline void RunCe(uint32_t* a) {
  constexpr CePair ce = kNet32.ce[I];
  const uint32_t x = a[ce.a];
  const uint32_t y = a[ce.b];
  a[ce.a] = y < x ? y : x;
  a[ce.b] = y < x ? x : y;
}

template <size_t... I>
inline void RunNetwork(uint32_t* a, std::index_sequence<I...>) {
  (RunCe<I>(a), ...);
}

void Sort32Scalar(uint32_t* a) {
  RunNetwork(a, std::make_index_sequence<kNet32.count>{});
}

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)

using internal::BitonicTakeMax;
using internal::kBitonicLayers;

__attribute__((target("avx512f"))) void Sort32Avx512(uint32_t* a) {
  __m512i v0 = _mm512_loadu_si512(a);
  __m512i v1 = _mm512_loadu_si512(a + 16);
  internal::BitonicSort32Avx512(&v0, &v1);
  _mm512_storeu_si512(a, v0);
  _mm512_storeu_si512(a + 16, v1);
}

// Per-layer per-register 8-lane blend masks (all-ones selects max), for
// the twelve in-register layers (j < 8) in schedule order.
constexpr std::array<std::array<std::array<int32_t, 8>, 4>, 12>
MakeMasks8() {
  std::array<std::array<std::array<int32_t, 8>, 4>, 12> masks{};
  size_t out = 0;
  for (size_t layer = 0; layer < kBitonicLayers.size(); ++layer) {
    if (kBitonicLayers[layer].j >= 8) continue;
    for (int reg = 0; reg < 4; ++reg) {
      for (int lane = 0; lane < 8; ++lane) {
        const int g = reg * 8 + lane;
        masks[out][reg][lane] = BitonicTakeMax(g, kBitonicLayers[layer].k,
                                               kBitonicLayers[layer].j)
                                    ? -1
                                    : 0;
      }
    }
    ++out;
  }
  return masks;
}

constexpr std::array<std::array<std::array<int32_t, 8>, 4>, 12> kMasks8 =
    MakeMasks8();

__attribute__((target("avx2"))) void Sort32Avx2(uint32_t* a) {
  __m256i v[4];
  for (int r = 0; r < 4; ++r) {
    v[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 8 * r));
  }
  const __m256i iota = _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  size_t in_reg_layer = 0;
  for (size_t layer = 0; layer < kBitonicLayers.size(); ++layer) {
    const int k = kBitonicLayers[layer].k;
    const int j = kBitonicLayers[layer].j;
    if (j >= 8) {
      // Whole registers pair up (partner reg = reg ^ j/8) and the
      // take-max direction is constant across a register's lanes.
      const int step = j / 8;
      for (int r = 0; r < 4; ++r) {
        if ((r & step) != 0) continue;
        const int s = r | step;
        const __m256i mn = _mm256_min_epu32(v[r], v[s]);
        const __m256i mx = _mm256_max_epu32(v[r], v[s]);
        v[r] = BitonicTakeMax(8 * r, k, j) ? mx : mn;
        v[s] = BitonicTakeMax(8 * s, k, j) ? mx : mn;
      }
    } else {
      const __m256i idx = _mm256_xor_si256(iota, _mm256_set1_epi32(j));
      for (int r = 0; r < 4; ++r) {
        const __m256i p = _mm256_permutevar8x32_epi32(v[r], idx);
        const __m256i mask = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(kMasks8[in_reg_layer][r].data()));
        v[r] = _mm256_blendv_epi8(_mm256_min_epu32(v[r], p),
                                  _mm256_max_epu32(v[r], p), mask);
      }
      ++in_reg_layer;
    }
  }
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + 8 * r), v[r]);
  }
}

#endif  // ZS_SIMD_ENABLED && __x86_64__

}  // namespace

void SortU32Network(uint32_t* keys, size_t n) {
  ZS_CHECK_LE(n, kSortNetworkMaxN);
  // An empty range may come with a null `keys`, which memcpy must not see.
  if (n == 0) return;
  alignas(64) uint32_t block[kBlock];
  std::memcpy(block, keys, n * sizeof(uint32_t));
  std::fill(block + n, block + kBlock, ~uint32_t{0});
#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
  switch (ActiveSimdTier()) {
    case SimdTier::kAvx512:
      Sort32Avx512(block);
      break;
    case SimdTier::kAvx2:
      Sort32Avx2(block);
      break;
    case SimdTier::kScalar:
      Sort32Scalar(block);
      break;
  }
#else
  Sort32Scalar(block);
#endif
  std::memcpy(keys, block, n * sizeof(uint32_t));
}

}  // namespace zonestream::numeric
