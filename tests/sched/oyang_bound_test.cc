#include "sched/oyang_bound.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/random.h"

namespace zonestream::sched {
namespace {

TEST(OyangBoundTest, ZeroRequestsIsFree) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  EXPECT_DOUBLE_EQ(OyangSeekBound(seek, 6720, 0), 0.0);
}

TEST(OyangBoundTest, PaperSeekValueForN27) {
  // §3.1 example: SEEK = 0.10932 s for N = 27 on the Table 1 disk.
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  EXPECT_NEAR(OyangSeekBound(seek, 6720, 27), 0.10932, 1e-5);
}

TEST(OyangBoundTest, EquidistantConstruction) {
  // SEEK(N) = (N+1) * seek(CYL/(N+1)) by construction for N >= 2.
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  for (int n : {2, 5, 27, 100}) {
    EXPECT_DOUBLE_EQ(OyangSeekBound(seek, 6720, n),
                     (n + 1) * seek.SeekTime(6720.0 / (n + 1)));
  }
}

TEST(OyangBoundTest, SingleRequestPaysOneFullStrokeSeek) {
  // N = 1 performs exactly one arm movement, so the worst case is one
  // full-stroke seek — strictly below the equidistant form's
  // 2*seek(CYL/2), which charges an inter-stream seek that a single
  // admitted stream never performs.
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const double bound = OyangSeekBound(seek, 6720, 1);
  EXPECT_DOUBLE_EQ(bound, seek.SeekTime(6720.0));
  EXPECT_LT(bound, 2.0 * seek.SeekTime(6720.0 / 2.0));
  // And it is still an upper bound on the worst realizable single seek.
  EXPECT_GE(bound, TotalSeekTimeOfSweep(seek, {6719}, 0));
}

TEST(OyangBoundTest, MonotoneIncreasingInN) {
  // More requests -> more accumulated seek overhead (each additional stop
  // costs at least the seek intercept).
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  double prev = 0.0;
  for (int n = 1; n <= 120; ++n) {
    const double bound = OyangSeekBound(seek, 6720, n);
    EXPECT_GT(bound, prev) << n;
    prev = bound;
  }
}

TEST(OyangBoundTest, DominatesTheConcaveMajorantBoundOnEveryPreset) {
  // The seek curves are not concave, so Oyang's equidistant argument does
  // not apply as stated. What holds instead: N hops from cylinder 0 within
  // the surface travel at most CYL, so they take at most N g(CYL / N) for
  // the concave majorant g, and the (N + 1)-segment bound covers that.
  const struct {
    const char* name;
    disk::SeekTimeModel seek;
    int cylinders;
  } disks[] = {
      {"viking", disk::QuantumViking2100Seek(),
       disk::QuantumViking2100Parameters().cylinders},
      {"fast", disk::SyntheticFastDiskSeek(),
       disk::SyntheticFastDiskParameters().cylinders},
      {"small", disk::SyntheticSmallDiskSeek(),
       disk::SyntheticSmallDiskParameters().cylinders},
  };
  double worst_ratio = 0.0;
  for (const auto& disk : disks) {
    for (int n = 2; n <= 200; ++n) {
      const double jensen =
          n * disk.seek.SeekTimeMajorant(static_cast<double>(disk.cylinders) /
                                         n);
      const double oyang = OyangSeekBound(disk.seek, disk.cylinders, n);
      EXPECT_LE(jensen, oyang) << disk.name << " n=" << n;
      worst_ratio = std::max(worst_ratio, jensen / oyang);
    }
  }
  EXPECT_LT(worst_ratio, 0.997);
}

TEST(TotalSeekTimeOfSweepTest, MatchesManualSum) {
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const std::vector<int> cylinders = {100, 400, 3000};
  const double expected = seek.SeekTime(100.0) + seek.SeekTime(300.0) +
                          seek.SeekTime(2600.0);
  EXPECT_DOUBLE_EQ(TotalSeekTimeOfSweep(seek, cylinders, 0), expected);
}

class OyangDominatesRandomSweepsTest : public ::testing::TestWithParam<int> {};

TEST_P(OyangDominatesRandomSweepsTest, BoundHoldsForUniformPlacements) {
  // Property: the Oyang bound dominates the realized total seek time of a
  // SCAN sweep for any placement of N requests (validated on random ones).
  const int n = GetParam();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const double bound = OyangSeekBound(seek, 6720, n);
  numeric::Rng rng(1000 + n);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> cylinders(n);
    for (int& c : cylinders) c = static_cast<int>(rng.UniformIndex(6720));
    std::sort(cylinders.begin(), cylinders.end());
    const double actual = TotalSeekTimeOfSweep(seek, cylinders, 0);
    EXPECT_LE(actual, bound + 1e-12) << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RequestCounts, OyangDominatesRandomSweepsTest,
                         ::testing::Values(1, 2, 5, 10, 27, 50, 100));

TEST(OyangBoundTest, BoundHoldsForSkewedMultiZonePlacements) {
  // §3.2 argues the bound remains valid for the capacity-skewed placement
  // of a multi-zone disk; verify on samples drawn from the real geometry.
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  numeric::Rng rng(9);
  const int n = 27;
  const double bound = OyangSeekBound(seek, 6720, n);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<int> cylinders(n);
    for (int& c : cylinders) {
      c = viking.SampleUniformPosition(&rng).cylinder;
    }
    std::sort(cylinders.begin(), cylinders.end());
    EXPECT_LE(TotalSeekTimeOfSweep(seek, cylinders, 0), bound + 1e-12);
  }
}

TEST(OyangBoundTest, EquidistantPlacementApproachesTheBound) {
  // The bound is tight: the equidistant placement realizes it (up to the
  // integer rounding of cylinder positions).
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const int n = 27;
  std::vector<int> cylinders(n);
  for (int i = 1; i <= n; ++i) {
    cylinders[i - 1] = static_cast<int>(6720.0 * i / (n + 1));
  }
  const double actual = TotalSeekTimeOfSweep(seek, cylinders, 0);
  const double bound = OyangSeekBound(seek, 6720, n);
  // The sweep has N segments vs the bound's N+1, so actual < bound but
  // within one segment's seek time.
  EXPECT_LE(actual, bound);
  EXPECT_GT(actual, bound - 1.2 * seek.SeekTime(6720.0 / (n + 1)));
}

}  // namespace
}  // namespace zonestream::sched
