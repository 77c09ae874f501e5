#include "sched/ordering.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "common/check.h"

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
