// The batched SCAN kernel and the disk arm against the struct-based
// reference: for every batch, ScanKernel and Arm must reproduce
// OrderRequests + ExecuteScanRound bit for bit — the service permutation
// and every per-position seek, rotation, transfer and completion time —
// on every SIMD tier the host supports (numeric::ForceSimdTier caps at
// the detected tier). Arm::ServeCertified, which skips the sweep, must
// only pass rounds the sweep finishes by the deadline and must leave the
// arm where Serve does.
#include "sched/scan_kernel.h"

#include <cmath>
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

// The smallest deadline at which ServeCertified passes, from `arm`'s
// state; the certificate is monotone in the deadline, so bisection finds
// the bound's edge to the last bit. +inf when it never passes.
double CertificateEdge(const disk::SeekTimeModel& seek, const Batch& batch,
                       ServicePolicy policy, const Arm& arm) {
  const auto passes = [&](double deadline) {
    Arm copy = arm;
    return copy.ServeCertified(seek, batch.View(), policy, deadline);
  };
  double lo = 0.0;
  double hi = 1e6;
  if (!passes(hi)) return INFINITY;
  while (std::nextafter(lo, hi) < hi) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    (passes(mid) ? hi : lo) = mid;
  }
  return hi;
}

// A certified round must be one the full sweep finishes by the deadline,
// and leave the arm where Serve leaves it.
void ExpectSoundAt(const disk::SeekTimeModel& seek, const Batch& batch,
                   ServicePolicy policy, int start_cylinder, bool ascending,
                   double deadline, const std::string& label) {
  Arm certified;
  certified.Reset(start_cylinder, ascending);
  if (!certified.ServeCertified(seek, batch.View(), policy, deadline)) return;
  Arm swept;
  swept.Reset(start_cylinder, ascending);
  ScanKernel kernel;
  const Arm::Round round =
      swept.Serve(seek, batch.View(), policy, deadline, &kernel);
  EXPECT_EQ(round.on_time, batch.cylinder.size())
      << label << " deadline=" << deadline;
  EXPECT_LE(round.return_seek_s + kernel.total_service_time_s(), deadline)
      << label;
  EXPECT_EQ(certified.cylinder(), swept.cylinder()) << label;
  EXPECT_EQ(certified.ascending(), swept.ascending()) << label;
}

// Checks soundness at the bound's edge and at looser deadlines.
void StressCertificate(const disk::SeekTimeModel& seek, const Batch& batch,
                       int start_cylinder, const std::string& label) {
  for (const ServicePolicy policy :
       {ServicePolicy::kScan, ServicePolicy::kCScan}) {
    for (const bool ascending : {true, false}) {
      Arm arm;
      arm.Reset(start_cylinder, ascending);
      const double edge = CertificateEdge(seek, batch, policy, arm);
      ASSERT_TRUE(std::isfinite(edge)) << label;
      const std::string where =
          label + (policy == ServicePolicy::kScan ? " scan" : " cscan") +
          (ascending ? " asc" : " desc");
      for (const double deadline :
           {edge, std::nextafter(edge, INFINITY), edge * (1.0 + 1e-12),
            edge * 1.5, 1e6}) {
        ExpectSoundAt(seek, batch, policy, start_cylinder, ascending,
                      deadline, where);
      }
      // Just under the edge the certificate declines and moves nothing.
      Arm below = arm;
      EXPECT_FALSE(below.ServeCertified(seek, batch.View(), policy,
                                        std::nextafter(edge, 0.0)))
          << where;
      EXPECT_EQ(below.cylinder(), start_cylinder) << where;
      EXPECT_EQ(below.ascending(), ascending) << where;
    }
  }
}

// Requests at the given cylinders with the given per-request rotation and
// bytes (rate 5 MB/s).
Batch Layout(const std::vector<int>& cylinders, double rotation_s,
             double bytes) {
  Batch batch;
  batch.cylinder = cylinders;
  batch.rotation_s.assign(cylinders.size(), rotation_s);
  batch.bytes.assign(cylinders.size(), bytes);
  batch.rate_bps.assign(cylinders.size(), 5e6);
  return batch;
}

TEST(ArmCertificateTest, CertifiedRoundsSweepOnTimeOnEveryTier) {
  // Random batches on each preset's seek curve, from an arm at either end
  // or mid-disk, through the network sort (n <= 32) and std::sort
  // (n > 32): every deadline the certificate passes, down to the last bit
  // of its edge, is one the full sweep meets.
  const disk::SeekTimeModel seeks[] = {disk::QuantumViking2100Seek(),
                                       disk::SyntheticFastDiskSeek(),
                                       disk::SyntheticSmallDiskSeek()};
  numeric::Rng rng(20261019);
  for (const SimdTier tier :
       {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
    ScopedTier forced(tier);
    for (size_t m = 0; m < 3; ++m) {
      for (const size_t n : {1u, 2u, 7u, 26u, 32u, 33u, 64u}) {
        for (int trial = 0; trial < 4; ++trial) {
          const Batch batch = RandomBatch(n, trial % 2 == 1, &rng);
          for (const int start : {0, 3360, 6719}) {
            StressCertificate(seeks[m], batch, start,
                              std::string("tier=") +
                                  numeric::SimdTierName(tier) +
                                  " seek=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  " start=" + std::to_string(start));
          }
        }
      }
    }
  }
}

TEST(ArmCertificateTest, AdversarialLayoutsStaySound) {
  // Layouts where the bound is tight or the arm's first hop dominates:
  // equidistant stops (every hop D / n, where Jensen is an equality below
  // the knee), with and without rotation and transfer; every request on
  // one cylinder; one request; the arm at the far end of the surface.
  const disk::SeekTimeModel seeks[] = {disk::QuantumViking2100Seek(),
                                       disk::SyntheticFastDiskSeek(),
                                       disk::SyntheticSmallDiskSeek()};
  std::vector<Batch> layouts;
  for (const int n : {1, 3, 26, 40, 100}) {
    for (const int step : {1, 50, 258, 6719 / n}) {
      std::vector<int> cylinders;
      for (int i = 1; i <= n; ++i) cylinders.push_back(i * step);
      layouts.push_back(Layout(cylinders, 0.0, 0.0));
      layouts.push_back(Layout(cylinders, 0.004, 120e3));
    }
    layouts.push_back(Layout(std::vector<int>(n, 3000), 0.0, 0.0));
    layouts.push_back(Layout(std::vector<int>(n, 0), 0.002, 50e3));
    layouts.push_back(Layout(std::vector<int>(n, 6719), 0.0, 0.0));
  }
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx512}) {
    ScopedTier forced(tier);
    for (size_t m = 0; m < 3; ++m) {
      for (size_t l = 0; l < layouts.size(); ++l) {
        for (const int start : {0, 1, 3000, 6719}) {
          StressCertificate(seeks[m], layouts[l], start,
                            std::string("tier=") +
                                numeric::SimdTierName(tier) +
                                " seek=" + std::to_string(m) +
                                " layout=" + std::to_string(l) +
                                " start=" + std::to_string(start));
        }
      }
    }
  }
}

TEST(ArmCertificateTest, SstfAndFcfsAlwaysDecline) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  numeric::Rng rng(11);
  const Batch batch = RandomBatch(26, false, &rng);
  for (const ServicePolicy policy :
       {ServicePolicy::kSstf, ServicePolicy::kFcfs}) {
    Arm arm;
    arm.Reset(1234, false);
    EXPECT_FALSE(arm.ServeCertified(seek, batch.View(), policy, 1e9));
    EXPECT_EQ(arm.cylinder(), 1234);
    EXPECT_FALSE(arm.ascending());
  }
}

TEST(ArmCertificateTest, CertifiesMostRoundsWithRoomToSpare) {
  // Not vacuous: at N = 26 on the Table 1 disk the bound's seek term is
  // within a few percent of the sweep's, so a deadline 10% past the full
  // sweep's T certifies nearly every round.
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  numeric::Rng rng(26);
  int certified = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    const Batch batch = RandomBatch(26, false, &rng);
    ScanKernel kernel;
    Arm swept;
    swept.Serve(seek, batch.View(), ServicePolicy::kScan, 1e9, &kernel);
    Arm arm;
    if (arm.ServeCertified(seek, batch.View(), ServicePolicy::kScan,
                           1.1 * kernel.total_service_time_s())) {
      ++certified;
    }
  }
  EXPECT_GE(certified, trials * 95 / 100);
}

}  // namespace
}  // namespace zonestream::sched
