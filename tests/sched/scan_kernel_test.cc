// The batched SCAN kernel and the disk arm against the struct-based
// reference: for every batch, ScanKernel and Arm must reproduce
// OrderRequests + ExecuteScanRound bit for bit — the service permutation
// and every per-position seek, rotation, transfer and completion time —
// on every SIMD tier the host supports (numeric::ForceSimdTier caps at
// the detected tier).
#include "sched/scan_kernel.h"

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/random.h"
#include "numeric/simd.h"
#include "sched/ordering.h"
#include "sched/request.h"
#include "sched/scan.h"

namespace zonestream::sched {
namespace {

using numeric::SimdTier;

// Restores the detected tier when a test exits.
class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier) { numeric::ForceSimdTier(tier); }
  ~ScopedTier() { numeric::ForceSimdTier(numeric::DetectedSimdTier()); }
};

// One disk's round in issue order, as structure-of-arrays.
struct Batch {
  std::vector<int> cylinder;
  std::vector<double> rotation_s;
  std::vector<double> bytes;
  std::vector<double> rate_bps;

  ScanBatch View() const {
    return ScanBatch{cylinder.size(), cylinder.data(), rotation_s.data(),
                     bytes.data(), rate_bps.data()};
  }
};

// Random requests on the Table 1 disk. With `few_cylinders` the batch
// draws from eight cylinders, so most requests share a cylinder with
// another and the issue-index tie-break decides their order.
Batch RandomBatch(size_t n, bool few_cylinders, numeric::Rng* rng) {
  const disk::DiskGeometry geometry = disk::QuantumViking2100();
  Batch batch;
  for (size_t i = 0; i < n; ++i) {
    const disk::DiskPosition position = geometry.SampleUniformPosition(rng);
    batch.cylinder.push_back(
        few_cylinders ? 700 * static_cast<int>(rng->UniformIndex(8))
                      : position.cylinder);
    batch.rotation_s.push_back(rng->Uniform(0.0, geometry.rotation_time()));
    batch.bytes.push_back(rng->Gamma(4.0, 50e3));
    batch.rate_bps.push_back(position.transfer_rate_bps);
  }
  return batch;
}

// The same batch as request structs, stream id = issue index.
std::vector<DiskRequest> ToRequests(const Batch& batch) {
  std::vector<DiskRequest> requests;
  for (size_t i = 0; i < batch.cylinder.size(); ++i) {
    DiskRequest request;
    request.stream_id = static_cast<int>(i);
    request.cylinder = batch.cylinder[i];
    request.bytes = batch.bytes[i];
    request.rotational_latency_s = batch.rotation_s[i];
    request.transfer_rate_bps = batch.rate_bps[i];
    requests.push_back(request);
  }
  return requests;
}

// Checks the kernel's last result against the struct-based reference:
// the requests ordered under `policy` and timed from `start_cylinder`.
void ExpectMatchesReference(const ScanKernel& kernel, const Batch& batch,
                            ServicePolicy policy, int start_cylinder,
                            SweepDirection direction,
                            const std::string& label) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  std::vector<DiskRequest> requests = ToRequests(batch);
  OrderRequests(&requests, policy, start_cylinder, direction);
  const RoundTiming timing = ExecuteScanRound(seek, requests, start_cylinder);

  ASSERT_EQ(kernel.size(), requests.size()) << label;
  for (size_t pos = 0; pos < requests.size(); ++pos) {
    const RequestTiming& expected = timing.per_request[pos];
    const int i = kernel.order()[pos];
    ASSERT_EQ(i, expected.stream_id) << label << " pos=" << pos;
    EXPECT_EQ(kernel.seek_s()[pos], expected.seek_s)
        << label << " pos=" << pos;
    EXPECT_EQ(batch.rotation_s[static_cast<size_t>(i)], expected.rotation_s)
        << label << " pos=" << pos;
    EXPECT_EQ(kernel.transfer_s()[pos], expected.transfer_s)
        << label << " pos=" << pos;
    EXPECT_EQ(kernel.completion_s()[pos], expected.completion_s)
        << label << " pos=" << pos;
  }
  EXPECT_EQ(kernel.total_service_time_s(), timing.total_service_time_s)
      << label;
  // The on-time prefix against deadlines at, between and around the
  // completions, counted the long way.
  const double offset = 0.01;
  for (size_t pos = 0; pos <= requests.size(); ++pos) {
    for (const double slack : {-1e-9, 0.0, 1e-9}) {
      const double deadline =
          (pos < requests.size() ? offset + timing.per_request[pos].completion_s
                                 : 0.0) +
          slack;
      size_t on_time = 0;
      for (const RequestTiming& rt : timing.per_request) {
        if (offset + rt.completion_s <= deadline) ++on_time;
      }
      EXPECT_EQ(kernel.OnTimeCount(offset, deadline), on_time)
          << label << " deadline=" << deadline;
    }
  }
}

TEST(ScanKernelTest, MatchesSortForScanAndExecuteScanRoundOnEveryTier) {
  numeric::Rng rng(20261017);
  // One kernel across every batch, as its callers use it: buffers left
  // over from a larger batch must not leak into a smaller one.
  ScanKernel kernel;
  // Sizes straddle the fused AVX-512 sweep's edges: its minimum, each of
  // its 8-lane blocks and 16-lane key registers filling, and the network's
  // 32-request limit.
  for (const size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 26u,
                         31u, 32u, 33u, 64u, 100u}) {
    for (const bool few_cylinders : {false, true}) {
      const Batch batch = RandomBatch(n, few_cylinders, &rng);
      const int start_cylinder = static_cast<int>(rng.UniformIndex(6720));
      for (const SweepDirection direction :
           {SweepDirection::kAscending, SweepDirection::kDescending}) {
        for (const SimdTier tier :
             {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
          ScopedTier forced(tier);
          kernel.Run(disk::QuantumViking2100Seek(), batch.View(),
                     start_cylinder, direction);
          const std::string label =
              "n=" + std::to_string(n) +
              (few_cylinders ? " repeated" : " distinct") +
              (direction == SweepDirection::kAscending ? " asc" : " desc") +
              " tier=" + numeric::SimdTierName(tier);
          ExpectMatchesReference(kernel, batch, ServicePolicy::kScan,
                                 start_cylinder, direction, label);
        }
      }
    }
  }
}

TEST(ScanKernelTest, CylindersBeyondTheNetworkKeyTakeTheWideSort) {
  // Network keys hold 26 cylinder bits; larger cylinders must fall back
  // to the 64-bit keys rather than wrap, at any batch size.
  numeric::Rng rng(5);
  Batch batch = RandomBatch(12, /*few_cylinders=*/false, &rng);
  for (size_t i = 0; i < batch.cylinder.size(); ++i) {
    batch.cylinder[i] = (i % 3 == 0) ? (1 << 26) + static_cast<int>(i)
                                     : static_cast<int>(i % 4) * 1000;
  }
  ScanKernel kernel;
  for (const SweepDirection direction :
       {SweepDirection::kAscending, SweepDirection::kDescending}) {
    kernel.Run(disk::QuantumViking2100Seek(), batch.View(), 0, direction);
    ExpectMatchesReference(kernel, batch, ServicePolicy::kScan, 0, direction,
                           "wide cylinders");
  }
}

TEST(ScanKernelTest, RunInOrderTimesTheGivenPermutation) {
  // FCFS (issue order) through RunInOrder equals ExecuteScanRound on the
  // unsorted batch.
  numeric::Rng rng(9);
  const Batch batch = RandomBatch(40, /*few_cylinders=*/false, &rng);
  std::vector<int> identity(batch.cylinder.size());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<int>(i);
  }
  ScanKernel kernel;
  kernel.RunInOrder(disk::QuantumViking2100Seek(), batch.View(), 123,
                    identity.data());
  ExpectMatchesReference(kernel, batch, ServicePolicy::kFcfs, 123,
                         SweepDirection::kAscending, "fcfs");
}

TEST(ScanKernelTest, PrecomputedTransferTimesReplaceBytesOverRate) {
  numeric::Rng rng(13);
  const Batch batch = RandomBatch(26, /*few_cylinders=*/false, &rng);
  std::vector<double> transfer(batch.bytes.size());
  for (size_t i = 0; i < transfer.size(); ++i) {
    transfer[i] = batch.bytes[i] / batch.rate_bps[i];
  }
  ScanBatch view;
  view.n = batch.cylinder.size();
  view.cylinder = batch.cylinder.data();
  view.rotation_s = batch.rotation_s.data();
  view.transfer_s = transfer.data();
  ScanKernel kernel;
  kernel.Run(disk::QuantumViking2100Seek(), view, 17,
             SweepDirection::kDescending);
  ExpectMatchesReference(kernel, batch, ServicePolicy::kScan, 17,
                         SweepDirection::kDescending, "precomputed transfers");
}

TEST(ArmTest, ServeMatchesTheStructReferenceOnEveryTier) {
  // Each policy's round through the arm against the struct path's arm
  // rules: C-SCAN pays SeekTime(arm) back to cylinder 0 and sweeps
  // ascending from there, the others start where the arm rests; a request
  // is on time when return seek + completion <= deadline; the arm then
  // rests on the last on-time request (or stays put) and the direction
  // flips.
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  numeric::Rng rng(20261018);
  ScanKernel kernel;
  Arm arm;
  for (const ServicePolicy policy :
       {ServicePolicy::kScan, ServicePolicy::kCScan, ServicePolicy::kSstf,
        ServicePolicy::kFcfs}) {
    for (const size_t n : {0u, 1u, 7u, 26u, 32u, 33u, 40u}) {
      const Batch batch = RandomBatch(n, /*few_cylinders=*/false, &rng);
      for (const int start_cylinder : {0, 3360}) {
        for (const bool ascending : {true, false}) {
          const SweepDirection direction = ascending
                                               ? SweepDirection::kAscending
                                               : SweepDirection::kDescending;
          const bool cscan = policy == ServicePolicy::kCScan;
          const int begin = cscan ? 0 : start_cylinder;
          const double return_seek_s =
              cscan && start_cylinder != 0 ? seek.SeekTime(start_cylinder)
                                           : 0.0;
          std::vector<DiskRequest> requests = ToRequests(batch);
          OrderRequests(&requests, policy, begin, direction);
          const RoundTiming timing = ExecuteScanRound(seek, requests, begin);
          // Deadlines before every completion, after all of them, and at
          // and around a first, middle and last completion.
          std::vector<double> deadlines = {0.0, 1e9};
          for (const size_t pos : {size_t{0}, n / 2, n - 1}) {
            if (pos >= n) continue;
            for (const double slack : {-1e-9, 0.0, 1e-9}) {
              deadlines.push_back(return_seek_s +
                                  timing.per_request[pos].completion_s +
                                  slack);
            }
          }
          for (const SimdTier tier :
               {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
            ScopedTier forced(tier);
            const std::string label =
                "policy=" + std::to_string(static_cast<int>(policy)) +
                " n=" + std::to_string(n) +
                " start=" + std::to_string(start_cylinder) +
                (ascending ? " asc" : " desc") +
                " tier=" + numeric::SimdTierName(tier);
            for (const double deadline : deadlines) {
              arm.Reset(start_cylinder, ascending);
              const Arm::Round round =
                  arm.Serve(seek, batch.View(), policy, deadline, &kernel);
              size_t on_time = 0;
              for (const RequestTiming& rt : timing.per_request) {
                if (return_seek_s + rt.completion_s <= deadline) ++on_time;
              }
              EXPECT_EQ(round.return_seek_s, return_seek_s) << label;
              EXPECT_EQ(round.on_time, on_time)
                  << label << " deadline=" << deadline;
              EXPECT_EQ(arm.cylinder(),
                        on_time > 0 ? requests[on_time - 1].cylinder : begin)
                  << label << " deadline=" << deadline;
              EXPECT_EQ(arm.ascending(), !ascending) << label;
            }
            ExpectMatchesReference(kernel, batch, policy, begin, direction,
                                   label);
            // A round the disk skips only flips the direction.
            const int rest = arm.cylinder();
            arm.Skip();
            EXPECT_EQ(arm.cylinder(), rest) << label;
            EXPECT_EQ(arm.ascending(), ascending) << label;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace zonestream::sched
