#include "sched/scan_kernel.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#include "numeric/simd.h"
#include "numeric/sort_network.h"
#include "numeric/sort_network_internal.h"
#include "sched/batch_kernels.h"

#if defined(ZS_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#define ZS_SIMD_X86 1
#endif

namespace zonestream::sched {

namespace {

// Network keys: cylinder in the high 26 bits, issue index in the low 6
// (kSortNetworkMaxN = 32 fits).
constexpr int kIndexBits = 6;
constexpr uint32_t kIndexMask = (1u << kIndexBits) - 1u;
constexpr uint32_t kCylinderMask = (1u << (32 - kIndexBits)) - 1u;
static_assert(numeric::kSortNetworkMaxN <= kIndexMask + 1);

// Smallest batch the fused AVX-512 sweep takes: it measured faster than
// the separate passes at every size from one request up (one request:
// ~40 ns against ~74 ns, whose network sort pads to 32 keys either way;
// 26 requests: ~85 ns against ~200 ns; Xeon with AVX-512). An empty batch
// has nothing to sweep.
constexpr size_t kFusedSweepMinN = 1;

#ifdef ZS_SIMD_X86

// Seek, transfer and seek + rotation + transfer for the service positions
// [base, base + 8) of the fused sweep, `live` marking those below n.
// `distance` and `issue` hold the positions' seek distances and issue
// indices. Each term is the scalar expression, lane by lane, in its
// evaluation order: SeekTimeModel::SeekTime (internal::SeekTimeAvx512),
// bytes / rate_bps, and
// (seek + rotation) + transfer as ExecuteScanRound's clock adds it.
__attribute__((target("avx512f,avx512dq"))) inline void FusedTermsAvx512(
    const disk::SeekParameters& p, const ScanBatch& batch, __m256i distance,
    __m256i issue, __mmask8 live, size_t base, double* seek_s,
    double* transfer_s, double* service_s) {
  const __m512d seek =
      internal::SeekTimeAvx512(p, _mm512_cvtepi32_pd(distance));

  // Gathers stay inside the batch: dead lanes load nothing (and divide
  // 0 by 1).
  const __m512d zero = _mm512_setzero_pd();
  const __m512d rotation =
      _mm512_mask_i32gather_pd(zero, live, issue, batch.rotation_s, 8);
  __m512d transfer;
  if (batch.transfer_s != nullptr) {
    transfer = _mm512_mask_i32gather_pd(zero, live, issue, batch.transfer_s, 8);
  } else {
    transfer = _mm512_div_pd(
        _mm512_mask_i32gather_pd(zero, live, issue, batch.bytes, 8),
        _mm512_mask_i32gather_pd(_mm512_set1_pd(1.0), live, issue,
                                 batch.rate_bps, 8));
  }
  _mm512_mask_storeu_pd(seek_s + base, live, seek);
  _mm512_mask_storeu_pd(transfer_s + base, live, transfer);
  _mm512_store_pd(service_s + base,
                  _mm512_add_pd(_mm512_add_pd(seek, rotation), transfer));
}

// The whole sweep of 1..32 requests in registers: keys built and sorted
// on the network, the order extracted, the arm walked (service-order
// cylinders decoded from the sorted keys, each against its predecessor
// one lane down), and every per-position term formed eight lanes at a
// time; only the clock's prefix sum runs scalar. Returns false, writing
// nothing, when a cylinder does not fit the network key.
__attribute__((target("avx512f,avx512dq"))) bool FusedSweepAvx512(
    const disk::SeekParameters& p, const ScanBatch& batch,
    int start_cylinder, SweepDirection direction, int* order, double* seek_s,
    double* transfer_s, double* completion_s) {
  const size_t n = batch.n;
  const uint32_t live = n == 32 ? ~0u : (1u << n) - 1u;
  const __mmask16 live0 = static_cast<__mmask16>(live);
  const __mmask16 live1 = static_cast<__mmask16>(live >> 16);
  // The upper register's pointers stay inside the arrays when it is empty.
  const size_t upper = n > 16 ? 16 : 0;
  const __m512i c0 = _mm512_maskz_loadu_epi32(live0, batch.cylinder);
  const __m512i c1 = _mm512_maskz_loadu_epi32(live1, batch.cylinder + upper);
  if (_mm512_test_epi32_mask(_mm512_or_si512(c0, c1),
                             _mm512_set1_epi32(~kCylinderMask)) != 0) {
    return false;
  }

  // ScanOrder's keys, padded with UINT32_MAX as SortU32Network pads.
  const __m512i flip = _mm512_set1_epi32(
      direction == SweepDirection::kDescending ? kCylinderMask : 0u);
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i pad = _mm512_set1_epi32(-1);
  __m512i k0 = _mm512_mask_or_epi32(
      pad, live0, _mm512_slli_epi32(_mm512_xor_si512(c0, flip), kIndexBits),
      iota);
  __m512i k1 = _mm512_mask_or_epi32(
      pad, live1, _mm512_slli_epi32(_mm512_xor_si512(c1, flip), kIndexBits),
      _mm512_add_epi32(iota, _mm512_set1_epi32(16)));
  numeric::internal::BitonicSort32Avx512(&k0, &k1);

  const __m512i index_mask = _mm512_set1_epi32(kIndexMask);
  const __m512i o0 = _mm512_and_si512(k0, index_mask);
  const __m512i o1 = _mm512_and_si512(k1, index_mask);
  _mm512_mask_storeu_epi32(order, live0, o0);
  _mm512_mask_storeu_epi32(order + upper, live1, o1);

  const __m512i s0 =
      _mm512_xor_si512(_mm512_srli_epi32(k0, kIndexBits), flip);
  const __m512i s1 =
      _mm512_xor_si512(_mm512_srli_epi32(k1, kIndexBits), flip);
  const __m512i d0 = _mm512_abs_epi32(_mm512_sub_epi32(
      s0, _mm512_alignr_epi32(s0, _mm512_set1_epi32(start_cylinder), 15)));
  const __m512i d1 =
      _mm512_abs_epi32(_mm512_sub_epi32(s1, _mm512_alignr_epi32(s1, s0, 15)));

  alignas(64) double service_s[32];
  FusedTermsAvx512(p, batch, _mm512_castsi512_si256(d0),
                   _mm512_castsi512_si256(o0), static_cast<__mmask8>(live), 0,
                   seek_s, transfer_s, service_s);
  if (n > 8) {
    FusedTermsAvx512(p, batch, _mm512_extracti64x4_epi64(d0, 1),
                     _mm512_extracti64x4_epi64(o0, 1),
                     static_cast<__mmask8>(live >> 8), 8, seek_s, transfer_s,
                     service_s);
  }
  if (n > 16) {
    FusedTermsAvx512(p, batch, _mm512_castsi512_si256(d1),
                     _mm512_castsi512_si256(o1),
                     static_cast<__mmask8>(live >> 16), 16, seek_s,
                     transfer_s, service_s);
  }
  if (n > 24) {
    FusedTermsAvx512(p, batch, _mm512_extracti64x4_epi64(d1, 1),
                     _mm512_extracti64x4_epi64(o1, 1),
                     static_cast<__mmask8>(live >> 24), 24, seek_s,
                     transfer_s, service_s);
  }
  // The clock is a strictly ordered prefix sum.
  double clock = 0.0;
  for (size_t pos = 0; pos < n; ++pos) {
    clock += service_s[pos];
    completion_s[pos] = clock;
  }
  return true;
}

#endif  // ZS_SIMD_X86

}  // namespace

void ScanKernel::Resize(size_t n) {
  n_ = n;
  if (order_.size() >= n) return;
  order_.resize(n);
  seek_s_.resize(n);
  transfer_s_.resize(n);
  completion_s_.resize(n);
  wide_keys_.resize(n);
  seek_distance_.resize(n);
  transfer_by_issue_.resize(n);
}

void ScanKernel::Run(const disk::SeekTimeModel& seek, const ScanBatch& batch,
                     int start_cylinder, SweepDirection direction) {
  Resize(batch.n);
#ifdef ZS_SIMD_X86
  if (batch.n >= kFusedSweepMinN && batch.n <= numeric::kSortNetworkMaxN &&
      numeric::ActiveSimdTier() == numeric::SimdTier::kAvx512 &&
      FusedSweepAvx512(seek.params(), batch, start_cylinder, direction,
                       order_.data(), seek_s_.data(), transfer_s_.data(),
                       completion_s_.data())) {
    return;
  }
#endif
  ScanOrder(batch.cylinder, direction);
  Time(seek, batch, start_cylinder);
}

void ScanKernel::RunInOrder(const disk::SeekTimeModel& seek,
                            const ScanBatch& batch, int start_cylinder,
                            const int* order) {
  Resize(batch.n);
  std::copy(order, order + batch.n, order_.begin());
  Time(seek, batch, start_cylinder);
}

void ScanKernel::ScanOrder(const int* cylinder, SweepDirection direction) {
  // The order is one ascending sort of (cylinder, issue index) keys, the
  // cylinder bitwise-complemented for a descending sweep. Keys are unique,
  // so the sorted order is SortForScan's stable order and no choice of
  // sort algorithm can change it.
  const size_t n = n_;
  const bool descending = direction == SweepDirection::kDescending;
  if (n <= numeric::kSortNetworkMaxN) {
    // A branch-free sorting network runs the same compare-exchanges every
    // round, several times faster than std::sort on a fresh random batch.
    uint32_t keys[numeric::kSortNetworkMaxN];
    const uint32_t flip = descending ? kCylinderMask : 0u;
    uint32_t any_bits = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = static_cast<uint32_t>(cylinder[i]);
      any_bits |= c;
      keys[i] = ((c ^ flip) << kIndexBits) | static_cast<uint32_t>(i);
    }
    if ((any_bits & ~kCylinderMask) == 0) {
      numeric::SortU32Network(keys, n);
      for (size_t i = 0; i < n; ++i) {
        order_[i] = static_cast<int>(keys[i] & kIndexMask);
      }
      return;
    }
  }
  const uint32_t flip = descending ? ~0u : 0u;
  for (size_t i = 0; i < n; ++i) {
    wide_keys_[i] =
        (static_cast<uint64_t>(static_cast<uint32_t>(cylinder[i]) ^ flip)
         << 32) |
        static_cast<uint32_t>(i);
  }
  std::sort(wide_keys_.begin(),
            wide_keys_.begin() + static_cast<std::ptrdiff_t>(n));
  for (size_t i = 0; i < n; ++i) {
    order_[i] = static_cast<int>(wide_keys_[i] & 0xffffffffu);
  }
}

void ScanKernel::Time(const disk::SeekTimeModel& seek, const ScanBatch& batch,
                      int start_cylinder) {
  const size_t n = n_;
  // The arm walk is an integer recurrence, cheap to peel off; its seek
  // curve and the transfer divisions are per-request and run wide.
  int arm = start_cylinder;
  for (size_t pos = 0; pos < n; ++pos) {
    const int cylinder = batch.cylinder[order_[pos]];
    seek_distance_[pos] = std::abs(cylinder - arm);
    arm = cylinder;
  }
  internal::SeekTimes(seek, seek_distance_.data(), seek_s_.data(), n);
  const double* transfer = batch.transfer_s;
  if (transfer == nullptr) {
    internal::TransferTimes(batch.bytes, batch.rate_bps,
                            transfer_by_issue_.data(), n);
    transfer = transfer_by_issue_.data();
  }
  // The clock is a strictly ordered prefix sum, in ExecuteScanRound's
  // expression order.
  double clock = 0.0;
  for (size_t pos = 0; pos < n; ++pos) {
    const int i = order_[pos];
    const double t = transfer[i];
    transfer_s_[pos] = t;
    clock += seek_s_[pos] + batch.rotation_s[i] + t;
    completion_s_[pos] = clock;
  }
}

size_t ScanKernel::OnTimeCount(double offset_s, double deadline_s) const {
  size_t count = n_;
  while (count > 0 && offset_s + completion_s_[count - 1] > deadline_s) {
    --count;
  }
  return count;
}

}  // namespace zonestream::sched
