// RoundSimulator::RunRoundLateness against RunRound: a twin pair of
// simulators built alike, one running the full round and the other the
// lateness round, must agree on every round's overran flag and glitched
// streams, hold the same state afterwards (RNG streams, fault injector,
// arm, sources), and then run full rounds with bit-identical T_N. The
// cases span each preset at loads where the seek bound certifies every
// round, some of them, and almost none; SCAN and C-SCAN (and SSTF and
// FCFS, where the certificate declines); and the draws that ride in the
// batch (disturbances, structured faults, the outer-zone and
// track-pairing placements).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disk/placement.h"
#include "disk/presets.h"
#include "fault/fault_spec.h"
#include "numeric/statistics.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> Table1Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
}

void ExpectSameState(const RoundSimulatorState& a, const RoundSimulatorState& b,
                     const std::string& label) {
  EXPECT_EQ(a.rng_state, b.rng_state) << label;
  EXPECT_EQ(a.disturbance_rng_state, b.disturbance_rng_state) << label;
  EXPECT_EQ(a.has_fault_injector, b.has_fault_injector) << label;
  EXPECT_EQ(a.fault_injector.model_states, b.fault_injector.model_states)
      << label;
  EXPECT_EQ(a.fault_injector.rng_states, b.fault_injector.rng_states)
      << label;
  EXPECT_EQ(a.fault_injector.rounds_begun, b.fault_injector.rounds_begun)
      << label;
  EXPECT_EQ(a.arm_cylinder, b.arm_cylinder) << label;
  EXPECT_EQ(a.ascending, b.ascending) << label;
  EXPECT_EQ(a.rounds_run, b.rounds_run) << label;
  EXPECT_EQ(a.source_states, b.source_states) << label;
}

enum class Variant {
  kPlain,
  kDisturbances,
  kFaults,
  kOuterZones,
  kTrackPairing
};

SimulatorConfig ConfigFor(Variant variant, sched::ServicePolicy policy,
                          uint64_t seed) {
  SimulatorConfig config;
  config.seed = seed;
  config.policy = policy;
  switch (variant) {
    case Variant::kPlain:
      break;
    case Variant::kDisturbances:
      config.disturbance = DisturbanceConfig{0.05, 0.001, 0.02};
      break;
    case Variant::kFaults: {
      auto spec = fault::ParseFaultSpec(
          "slowdown:enter=0.05,exit=0.3,prob=0.5,delay_min=0.001,"
          "delay_max=0.02;zone_dropout:fail=0.01,recover=0.2,"
          "rate_factor=0.6;burst:prob=0.1,len=4,delay_min=0.001,"
          "delay_max=0.01;disk_failure:hazard=0.01,repair=5");
      EXPECT_TRUE(spec.ok());
      config.faults = *spec;
      break;
    }
    case Variant::kOuterZones:
      // Every preset has at least three zones.
      config.placement = {disk::PlacementStrategy::kOuterZones, 3};
      break;
    case Variant::kTrackPairing:
      config.placement.strategy = disk::PlacementStrategy::kTrackPairing;
      break;
  }
  return config;
}

TEST(LatenessRoundTest, MatchesTheFullRoundAcrossPresetsLoadsAndDraws) {
  // Loads per preset where the bound certifies all rounds, part of them
  // (about 95%, 50% and 90% under SCAN) and almost none.
  const struct {
    const char* name;
    disk::DiskGeometry geometry;
    disk::SeekTimeModel seek;
    std::vector<int> loads;
  } disks[] = {
      {"viking", disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
       {16, 30, 50}},
      {"fast", disk::SyntheticFastDisk(), disk::SyntheticFastDiskSeek(),
       {40, 80, 100}},
      {"small", disk::SyntheticSmallDisk(), disk::SyntheticSmallDiskSeek(),
       {6, 12, 26}},
  };
  const auto sizes = Table1Sizes();
  uint64_t seed = 300;
  for (const auto& disk : disks) {
    for (const int n : disk.loads) {
      for (const sched::ServicePolicy policy :
           {sched::ServicePolicy::kScan, sched::ServicePolicy::kCScan,
            sched::ServicePolicy::kSstf, sched::ServicePolicy::kFcfs}) {
        for (const Variant variant :
             {Variant::kPlain, Variant::kDisturbances, Variant::kFaults,
              Variant::kOuterZones, Variant::kTrackPairing}) {
          const std::string label =
              std::string(disk.name) + " n=" + std::to_string(n) +
              " policy=" + std::to_string(static_cast<int>(policy)) +
              " variant=" + std::to_string(static_cast<int>(variant));
          const SimulatorConfig config = ConfigFor(variant, policy, ++seed);
          auto full = RoundSimulator::Create(disk.geometry, disk.seek, n,
                                             RoundSimulator::IidFactory(sizes),
                                             config);
          auto lateness = RoundSimulator::Create(
              disk.geometry, disk.seek, n, RoundSimulator::IidFactory(sizes),
              config);
          ASSERT_TRUE(full.ok() && lateness.ok()) << label;
          int overruns = 0;
          for (int r = 0; r < 300; ++r) {
            const RoundOutcome outcome = full->RunRound();
            const RoundLateness round = lateness->RunRoundLateness();
            ASSERT_EQ(round.overran, outcome.overran)
                << label << " round " << r;
            ASSERT_EQ(round.glitched_streams, outcome.glitched_streams)
                << label << " round " << r;
            overruns += outcome.overran ? 1 : 0;
          }
          ExpectSameState(full->ExportState(), lateness->ExportState(),
                          label);
          for (int r = 0; r < 20; ++r) {
            ASSERT_EQ(lateness->RunRound().total_service_time_s,
                      full->RunRound().total_service_time_s)
                << label << " round " << r;
          }
        }
      }
    }
  }
}

TEST(LatenessRoundTest, NaiveEstimatorsEqualTheirFullRoundLoops) {
  // EstimateLateProbability, EstimateGlitchProbability and
  // EstimateErrorProbability run lateness rounds; the same loops over
  // RunRound on a twin give identical estimates. N = 30 on the Table 1
  // disk: about 4% of rounds are late and 5% escape the certificate.
  const auto sizes = Table1Sizes();
  const auto twin = [&sizes] {
    SimulatorConfig config;
    config.seed = 77;
    return *RoundSimulator::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), 30,
                                   RoundSimulator::IidFactory(sizes), config);
  };
  const int rounds = 3000;
  {
    RoundSimulator estimator = twin();
    RoundSimulator reference = twin();
    const ProbabilityEstimate late =
        estimator.EstimateLateProbability(rounds);
    int64_t overruns = 0;
    for (int r = 0; r < rounds; ++r) overruns += reference.RunRound().overran;
    const numeric::ProportionInterval expected =
        numeric::WilsonInterval(overruns, rounds);
    EXPECT_GT(overruns, 0);
    EXPECT_EQ(late.point, expected.point);
    EXPECT_EQ(late.ci_lower, expected.lower);
    EXPECT_EQ(late.ci_upper, expected.upper);
  }
  {
    RoundSimulator estimator = twin();
    RoundSimulator reference = twin();
    const ProbabilityEstimate glitch =
        estimator.EstimateGlitchProbability(rounds);
    int64_t events = 0;
    for (int r = 0; r < rounds; ++r) {
      events += static_cast<int64_t>(
          reference.RunRound().glitched_streams.size());
    }
    EXPECT_GT(events, 0);
    EXPECT_EQ(glitch.point,
              static_cast<double>(events) / (static_cast<double>(rounds) * 30));
  }
  {
    RoundSimulator estimator = twin();
    RoundSimulator reference = twin();
    const int m = 100;
    const int g = 1;
    const int lifetimes = 20;
    const ProbabilityEstimate error =
        estimator.EstimateErrorProbability(m, g, lifetimes);
    int64_t exceeding = 0;
    for (int lifetime = 0; lifetime < lifetimes; ++lifetime) {
      std::vector<int> counts(30, 0);
      for (int r = 0; r < m; ++r) {
        for (const int stream : reference.RunRound().glitched_streams) {
          ++counts[stream];
        }
      }
      for (const int count : counts) exceeding += count >= g ? 1 : 0;
    }
    EXPECT_GT(exceeding, 0);
    EXPECT_EQ(error.point, static_cast<double>(exceeding) /
                               (static_cast<double>(lifetimes) * 30));
  }
}

}  // namespace
}  // namespace zonestream::sim
