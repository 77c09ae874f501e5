// Clean-path golden regression: exact (bit-level) outputs of the round
// kernel and replicated estimators for one pinned configuration.
//
// The fault-injection subsystem promises that a run with no fault models
// configured is bit-identical to the pre-fault builds at any thread
// count. These goldens pin that contract: the values below were produced
// before src/fault/ existed and must never drift while the clean path is
// untouched. A legitimate change to the kernel's draw order must update
// them knowingly — EXPECT_EQ on doubles here is deliberate.
#include <memory>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> GoldenSizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
}

SimulatorConfig GoldenConfig() {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 4242;
  return config;
}

TEST(CleanPathGoldenTest, BatchedKernelSamplePathIsPinned) {
  // One row per service policy. The C-SCAN, SSTF and FCFS rows were
  // captured before the policies moved onto sched::Arm.
  struct Pinned {
    sched::ServicePolicy policy;
    double sum;
    int glitches;
  };
  for (const Pinned& pinned :
       {Pinned{sched::ServicePolicy::kScan, 237.43269236106721, 1},
        Pinned{sched::ServicePolicy::kCScan, 242.78408641226918, 2},
        Pinned{sched::ServicePolicy::kSstf, 237.71969128886204, 1},
        Pinned{sched::ServicePolicy::kFcfs, 276.16417684824341, 69}}) {
    SCOPED_TRACE(::testing::Message()
                 << "policy " << static_cast<int>(pinned.policy));
    SimulatorConfig config = GoldenConfig();
    config.policy = pinned.policy;
    auto simulator = RoundSimulator::Create(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 27,
        RoundSimulator::IidFactory(GoldenSizes()), config);
    ASSERT_TRUE(simulator.ok());
    double sum = 0.0;
    int glitches = 0;
    for (int r = 0; r < 300; ++r) {
      const RoundOutcome outcome = simulator->RunRound();
      sum += outcome.total_service_time_s;
      glitches += static_cast<int>(outcome.glitched_streams.size());
    }
    EXPECT_EQ(sum, pinned.sum);
    EXPECT_EQ(glitches, pinned.glitches);
  }
}

TEST(CleanPathGoldenTest, ReplicatedEstimatorsArePinned) {
  const SimulatorConfig config = GoldenConfig();
  ReplicationOptions options;
  options.replications = 8;
  options.base_seed = 4242;
  auto glitch = EstimateGlitchProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 27,
      RoundSimulator::IidFactory(GoldenSizes()), config, 400, options);
  ASSERT_TRUE(glitch.ok());
  EXPECT_EQ(glitch->point, 4.6296296296296294e-05);
  EXPECT_EQ(glitch->ci_lower, 1.8003868130290653e-05);
  EXPECT_EQ(glitch->ci_upper, 0.00011904396007695003);
  EXPECT_EQ(glitch->trials, 86400);

  auto late = EstimateLateProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 27,
      RoundSimulator::IidFactory(GoldenSizes()), config, 400, options);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->point, 0.00125);
  EXPECT_EQ(late->ci_lower, 0.00048620460845604885);
  EXPECT_EQ(late->ci_upper, 0.003209814365295811);
  EXPECT_EQ(late->trials, 3200);
}

}  // namespace
}  // namespace zonestream::sim
