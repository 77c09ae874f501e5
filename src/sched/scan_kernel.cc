#include "sched/scan_kernel.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#include "numeric/sort_network.h"
#include "sched/batch_kernels.h"

namespace zonestream::sched {

namespace {

// Network keys: cylinder in the high 26 bits, issue index in the low 6
// (kSortNetworkMaxN = 32 fits).
constexpr int kIndexBits = 6;
constexpr uint32_t kIndexMask = (1u << kIndexBits) - 1u;
constexpr uint32_t kCylinderMask = (1u << (32 - kIndexBits)) - 1u;
static_assert(numeric::kSortNetworkMaxN <= kIndexMask + 1);

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
