// The batched SCAN round kernel (§2.3, §3.1): one disk's round served in
// one elevator sweep, over structure-of-arrays requests.
//
// This is the sweep RoundSimulator's batched kernel, the ImportanceSampler
// and MediaServer all run. It computes exactly the arithmetic of
// SortForScan + ExecuteScanRound — the same service permutation (cylinder
// order in the sweep direction, ties in issue order), the same per-request
// seek and transfer values, and the same left-to-right completion clock
// over seek + rotation + transfer — so its results are bit-identical to
// the struct-based pair (tests/sched/scan_kernel_test.cc). What it drops is
// the struct shuffling: requests never move, the order is one flat sort of
// packed (cylinder, issue index) keys, and the per-request seek and
// transfer terms run on the wide kernels (sched/batch_kernels.h).
#ifndef ZONESTREAM_SCHED_SCAN_KERNEL_H_
#define ZONESTREAM_SCHED_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disk/seek_model.h"
#include "sched/scan.h"

namespace zonestream::sched {

// One disk's round in issue order. Request i sits at cylinder[i] (>= 0) and
// costs a seek from the previous arm position, rotation_s[i], and a
// transfer of bytes[i] / rate_bps[i] seconds. Callers that draw transfer
// times directly (the tilted importance sampler) pass transfer_s instead
// of bytes and rate_bps. Every term is non-negative (rotation_s, bytes and
// transfer_s >= 0, rate_bps > 0; seek times are by construction), so
// completion times never decrease along the sweep.
struct ScanBatch {
  size_t n = 0;
  const int* cylinder = nullptr;
  const double* rotation_s = nullptr;
  const double* bytes = nullptr;
  const double* rate_bps = nullptr;
  const double* transfer_s = nullptr;  // when set, replaces bytes / rate_bps
};

// Serves one batch at a time and holds the last result, per position in
// service order. Buffers grow to the largest batch seen and are reused, so
// steady-state rounds allocate nothing. Not thread-safe.
class ScanKernel {
 public:
  // Serves `batch` in SCAN order for `direction`, the arm starting at
  // `start_cylinder`. Sorts packed 32-bit keys with the sorting network up
  // to numeric::kSortNetworkMaxN requests, 64-bit keys with std::sort
  // above that (or for cylinders of 2^26 and beyond); the keys are unique,
  // so both give the same permutation.
  void Run(const disk::SeekTimeModel& seek, const ScanBatch& batch,
           int start_cylinder, SweepDirection direction);

  // Serves `batch` in a caller-chosen `order` (a permutation of the issue
  // indices [0, n), e.g. FCFS or SSTF) from `start_cylinder`.
  void RunInOrder(const disk::SeekTimeModel& seek, const ScanBatch& batch,
                  int start_cylinder, const int* order);

  size_t size() const { return n_; }
  // Issue index served at each position.
  const int* order() const { return order_.data(); }
  const double* seek_s() const { return seek_s_.data(); }
  const double* transfer_s() const { return transfer_s_.data(); }
  // Seek + rotation + transfer accumulated from round start.
  const double* completion_s() const { return completion_s_.data(); }
  // T_N, eq. (3.1.1): the last completion (0 for an empty batch).
  double total_service_time_s() const {
    return n_ == 0 ? 0.0 : completion_s_[n_ - 1];
  }
  // Number of leading positions that finish by `deadline_s` when the sweep
  // starts `offset_s` into the round (offset_s + completion <= deadline_s).
  // Completions never decrease, so the positions after them are exactly
  // the late ones; counted from the back, O(late requests + 1).
  size_t OnTimeCount(double offset_s, double deadline_s) const;

 private:
  void Resize(size_t n);
  void ScanOrder(const int* cylinder, SweepDirection direction);
  void Time(const disk::SeekTimeModel& seek, const ScanBatch& batch,
            int start_cylinder);

  size_t n_ = 0;
  std::vector<int> order_;
  std::vector<double> seek_s_;
  std::vector<double> transfer_s_;
  std::vector<double> completion_s_;
  // Scratch: 64-bit sort keys, per-position seek distances, and transfer
  // times in issue order.
  std::vector<uint64_t> wide_keys_;
  std::vector<double> seek_distance_;
  std::vector<double> transfer_by_issue_;
};

}  // namespace zonestream::sched

#endif  // ZONESTREAM_SCHED_SCAN_KERNEL_H_
