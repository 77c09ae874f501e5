#include "core/round_planner.h"

#include <gtest/gtest.h>

#include "disk/presets.h"

namespace zonestream::core {
namespace {

PlannedStream VideoStream() {
  PlannedStream stream;
  stream.bandwidth_bps = 200e3;
  stream.coefficient_of_variation = 0.5;
  return stream;
}

PlannerQos DefaultQos() { return PlannerQos{}; }

TEST(RoundPlannerTest, Validation) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  PlannedStream bad = VideoStream();
  bad.bandwidth_bps = 0.0;
  EXPECT_FALSE(EvaluateRoundLength(viking, seek, bad, DefaultQos(), 1.0).ok());
  PlannerQos bad_qos;
  bad_qos.glitch_rate = 0.0;
  EXPECT_FALSE(
      EvaluateRoundLength(viking, seek, VideoStream(), bad_qos, 1.0).ok());
  EXPECT_FALSE(
      EvaluateRoundLength(viking, seek, VideoStream(), DefaultQos(), 0.0)
          .ok());
  EXPECT_FALSE(
      SweepRoundLengths(viking, seek, VideoStream(), DefaultQos(), {}).ok());
}

TEST(RoundPlannerTest, Table1OperatingPoint) {
  // 200 KB/s at CV 0.5 with t = 1 s is exactly the Table 1 workload; the
  // 30-minute/1%/1% contract admits 28 per disk (cf. N_max^perror = 28
  // for M = 1200, which the 1800-round session approximates).
  const auto plan = EvaluateRoundLength(disk::QuantumViking2100(),
                                        disk::QuantumViking2100Seek(),
                                        VideoStream(), DefaultQos(), 1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->fragment_mean_bytes, 200e3);
  EXPECT_GE(plan->streams_per_disk, 26);
  EXPECT_LE(plan->streams_per_disk, 29);
  EXPECT_DOUBLE_EQ(plan->startup_latency_s, 1.0);
  EXPECT_GT(plan->client_buffer_bytes, 2 * 200e3);
}

TEST(RoundPlannerTest, CapacityNonDecreasingInRoundLength) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const auto plans = SweepRoundLengths(viking, seek, VideoStream(),
                                       DefaultQos(),
                                       {0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
  ASSERT_TRUE(plans.ok());
  for (size_t i = 1; i < plans->size(); ++i) {
    EXPECT_GE((*plans)[i].streams_per_disk,
              (*plans)[i - 1].streams_per_disk);
    EXPECT_GT((*plans)[i].client_buffer_bytes,
              (*plans)[i - 1].client_buffer_bytes);
  }
}

}  // namespace
}  // namespace zonestream::core
