#include "sched/ordering.h"

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/random.h"
#include "sched/oyang_bound.h"

namespace zonestream::sched {
namespace {

DiskRequest At(int cylinder, int stream = 0) {
  DiskRequest request;
  request.stream_id = stream;
  request.cylinder = cylinder;
  request.bytes = 100e3;
  request.rotational_latency_s = 0.004;
  request.transfer_rate_bps = 9e6;
  return request;
}

double TotalSeek(const std::vector<DiskRequest>& ordered, int start) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  double total = 0.0;
  int arm = start;
  for (const DiskRequest& request : ordered) {
    total += seek.SeekTime(std::abs(request.cylinder - arm));
    arm = request.cylinder;
  }
  return total;
}

TEST(OrderingTest, FcfsKeepsIssueOrder) {
  std::vector<DiskRequest> requests = {At(500, 0), At(10, 1), At(300, 2)};
  OrderRequests(&requests, ServicePolicy::kFcfs, 0,
                SweepDirection::kAscending);
  EXPECT_EQ(requests[0].stream_id, 0);
  EXPECT_EQ(requests[1].stream_id, 1);
  EXPECT_EQ(requests[2].stream_id, 2);
}

TEST(OrderingTest, ScanDelegatesToSortForScan) {
  std::vector<DiskRequest> requests = {At(500), At(10), At(300)};
  OrderRequests(&requests, ServicePolicy::kScan, 0,
                SweepDirection::kAscending);
  EXPECT_EQ(requests[0].cylinder, 10);
  EXPECT_EQ(requests[2].cylinder, 500);
  OrderRequests(&requests, ServicePolicy::kScan, 0,
                SweepDirection::kDescending);
  EXPECT_EQ(requests[0].cylinder, 500);
}

TEST(OrderingTest, SstfPicksNearestFirst) {
  std::vector<DiskRequest> requests = {At(500), At(90), At(300)};
  OrderRequests(&requests, ServicePolicy::kSstf, /*start_cylinder=*/100,
                SweepDirection::kAscending);
  EXPECT_EQ(requests[0].cylinder, 90);    // nearest to 100
  EXPECT_EQ(requests[1].cylinder, 300);   // nearest to 90 among the rest
  EXPECT_EQ(requests[2].cylinder, 500);
}

TEST(OrderingTest, SstfNeverWorseThanFcfsOnRandomBatches) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  numeric::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<DiskRequest> batch;
    for (int i = 0; i < 20; ++i) {
      batch.push_back(At(viking.SampleUniformPosition(&rng).cylinder, i));
    }
    std::vector<DiskRequest> fcfs = batch;
    std::vector<DiskRequest> sstf = batch;
    OrderRequests(&fcfs, ServicePolicy::kFcfs, 0,
                  SweepDirection::kAscending);
    OrderRequests(&sstf, ServicePolicy::kSstf, 0,
                  SweepDirection::kAscending);
    EXPECT_LE(TotalSeek(sstf, 0), TotalSeek(fcfs, 0) + 1e-12) << trial;
  }
}

TEST(OrderingTest, ScanSeekWithinOyangBoundSstfClose) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  numeric::Rng rng(7);
  const int n = 26;
  const double oyang = OyangSeekBound(seek, viking.cylinders(), n);
  double scan_total = 0.0;
  double sstf_total = 0.0;
  double fcfs_total = 0.0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<DiskRequest> batch;
    for (int i = 0; i < n; ++i) {
      batch.push_back(At(viking.SampleUniformPosition(&rng).cylinder, i));
    }
    std::vector<DiskRequest> scan = batch;
    std::vector<DiskRequest> sstf = batch;
    OrderRequests(&scan, ServicePolicy::kScan, 0,
                  SweepDirection::kAscending);
    OrderRequests(&sstf, ServicePolicy::kSstf, 0,
                  SweepDirection::kAscending);
    const double scan_seek = TotalSeek(scan, 0);
    EXPECT_LE(scan_seek, oyang + 1e-12);
    scan_total += scan_seek;
    sstf_total += TotalSeek(sstf, 0);
    fcfs_total += TotalSeek(batch, 0);
  }
  // On single batches SSTF lands within ~25% of SCAN; FCFS pays several
  // times more seek time.
  EXPECT_LT(sstf_total, 1.25 * scan_total);
  EXPECT_GT(fcfs_total, 2.0 * scan_total);
}

}  // namespace
}  // namespace zonestream::sched
