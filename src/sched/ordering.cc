#include "sched/ordering.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "common/check.h"
#include "sched/batch_kernels.h"

namespace zonestream::sched {

void SstfOrder(const int* cylinder, size_t n, int start_cylinder,
               int* order) {
  std::iota(order, order + n, 0);
  int arm = start_cylinder;
  for (size_t served = 0; served < n; ++served) {
    size_t best = served;
    int best_distance = std::abs(cylinder[order[served]] - arm);
    for (size_t i = served + 1; i < n; ++i) {
      const int distance = std::abs(cylinder[order[i]] - arm);
      if (distance < best_distance) {
        best = i;
        best_distance = distance;
      }
    }
    std::swap(order[served], order[best]);
    arm = cylinder[order[served]];
  }
}

void OrderRequests(std::vector<DiskRequest>* requests, ServicePolicy policy,
                   int start_cylinder, SweepDirection scan_direction) {
  ZS_CHECK(requests != nullptr);
  switch (policy) {
    case ServicePolicy::kFcfs:
      // Issue order: leave as-is.
      return;
    case ServicePolicy::kScan:
    case ServicePolicy::kCScan:
      SortForScan(requests, policy == ServicePolicy::kScan
                                ? scan_direction
                                : SweepDirection::kAscending);
      return;
    case ServicePolicy::kSstf: {
      const std::vector<DiskRequest> issued = *requests;
      std::vector<int> cylinder;
      for (const DiskRequest& r : issued) cylinder.push_back(r.cylinder);
      std::vector<int> order(issued.size());
      SstfOrder(cylinder.data(), issued.size(), start_cylinder, order.data());
      for (size_t pos = 0; pos < order.size(); ++pos) {
        (*requests)[pos] = issued[order[pos]];
      }
      return;
    }
  }
}

namespace {

// The certificate compares its bound B with the deadline t less a
// relative margin, and must never pass a round whose sweep, as the kernel
// computes it, ends after t. Every term is non-negative, so each rounding
// is relative to the sum (u = 2^-53):
//   * the sweep's clock T adds per position seek + rotation + transfer
//     (two adds) and accumulates n positions, after C-SCAN's return seek:
//     n + 3 roundings, and each seek a + b * sqrt(d) carries up to 3 of
//     its own, so T <= (1 + u)^(n + 6) * T_exact over the same rotation and
//     transfer values (the bound's divisions are the sweep's, correctly
//     rounded either way);
//   * B rounds D / n, the majorant's sqrt, product and sum, n * g, the
//     service sum's 2n adds in any order and the final two adds: at most
//     2n + 8 roundings, so B >= (1 - u)^(2n + 8) * B_exact (a concave g
//     with g(0) >= 0 keeps g(x (1 - u)) >= (1 - u) g(x));
//   * SeekTimeMajorant's stored coefficients keep it within a few ulps of
//     an exactly concave majorant.
// So T <= B * (1 + (3n + 20) u) to first order, and B <= t * (1 - m)
// implies T <= t whenever m > (3n + 24) u. Batches up to 2^20 requests
// need m > 3.5e-10; 1e-9 keeps a margin on that margin and gives up only
// bounds within a nanosecond of a one-second deadline.
constexpr double kCertificateMargin = 1e-9;
constexpr size_t kMaxCertifiedBatch = size_t{1} << 20;

}  // namespace

bool Arm::ServeCertified(const disk::SeekTimeModel& seek,
                         const ScanBatch& batch, ServicePolicy policy,
                         double deadline_s) {
  const size_t n = batch.n;
  if ((policy != ServicePolicy::kScan && policy != ServicePolicy::kCScan) ||
      n == 0 || n > kMaxCertifiedBatch) {
    return false;
  }
  const internal::BatchSummary summary = internal::SummarizeBatch(batch);
  const double lo = summary.min_cylinder;
  const double hi = summary.max_cylinder;
  double return_seek_s = 0.0;
  double travel = hi;
  int last = summary.max_cylinder;
  if (policy == ServicePolicy::kCScan) {
    if (cylinder_ != 0) return_seek_s = seek.SeekTime(cylinder_);
  } else if (ascending_) {
    travel = std::abs(cylinder_ - lo) + (hi - lo);
  } else {
    travel = std::abs(cylinder_ - hi) + (hi - lo);
    last = summary.min_cylinder;
  }
  const double hops = static_cast<double>(n);
  const double bound = return_seek_s +
                       hops * seek.SeekTimeMajorant(travel / hops) +
                       summary.service_s;
  if (!(bound <= deadline_s * (1.0 - kCertificateMargin))) return false;
  cylinder_ = last;
  ascending_ = !ascending_;
  return true;
}

Arm::Round Arm::Serve(const disk::SeekTimeModel& seek, const ScanBatch& batch,
                      ServicePolicy policy, double deadline_s,
                      ScanKernel* kernel) {
  Round round;
  switch (policy) {
    case ServicePolicy::kScan:
      kernel->Run(seek, batch, cylinder_,
                  ascending_ ? SweepDirection::kAscending
                             : SweepDirection::kDescending);
      break;
    case ServicePolicy::kCScan:
      // The return sweep is disk time like any other seek, so it is
      // charged to this round.
      if (cylinder_ != 0) round.return_seek_s = seek.SeekTime(cylinder_);
      cylinder_ = 0;
      kernel->Run(seek, batch, 0, SweepDirection::kAscending);
      break;
    case ServicePolicy::kSstf:
    case ServicePolicy::kFcfs:
      order_.resize(batch.n);
      if (policy == ServicePolicy::kSstf) {
        SstfOrder(batch.cylinder, batch.n, cylinder_, order_.data());
      } else {
        std::iota(order_.begin(), order_.end(), 0);
      }
      kernel->RunInOrder(seek, batch, cylinder_, order_.data());
      break;
  }
  round.on_time = kernel->OnTimeCount(round.return_seek_s, deadline_s);
  const int* order = kernel->order();
  if (round.on_time > 0) cylinder_ = batch.cylinder[order[round.on_time - 1]];
  ascending_ = !ascending_;
  return round;
}

}  // namespace zonestream::sched
