// Placement strategies through the full analytic + simulation pipeline:
// the rate mixtures from disk::PlacementModel feed the transfer transform
// and, as SimulatorConfig::placement, the simulator's position draw, and
// the capacity ordering predicted by the model must hold in simulation.
#include <memory>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/service_time_model.h"
#include "core/transfer_models.h"
#include "disk/placement.h"
#include "disk/presets.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::core {
namespace {

constexpr double kRound = 1.0;
constexpr double kMean = 200e3;
constexpr double kVar = 1e10;

ServiceTimeModel ModelForPlacement(const disk::PlacementConfig& config) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  auto placement = disk::PlacementModel::Create(viking, config);
  ZS_CHECK(placement.ok());
  auto transfer = GammaTransferModel::ForRateMixture(
      placement->probabilities(), placement->rates(), kMean, kVar);
  ZS_CHECK(transfer.ok());
  auto model = ServiceTimeModel::WithTransferModel(
      disk::QuantumViking2100Seek(), viking.cylinders(),
      viking.rotation_time(),
      std::make_shared<GammaTransferModel>(*std::move(transfer)));
  ZS_CHECK(model.ok());
  return *std::move(model);
}

TEST(PlacementIntegrationTest, ForRateMixtureValidation) {
  EXPECT_FALSE(GammaTransferModel::ForRateMixture({}, {}, kMean, kVar).ok());
  EXPECT_FALSE(
      GammaTransferModel::ForRateMixture({1.0}, {1.0, 2.0}, kMean, kVar)
          .ok());
  EXPECT_FALSE(
      GammaTransferModel::ForRateMixture({0.5, 0.4}, {1e6, 2e6}, kMean, kVar)
          .ok());  // probabilities sum != 1
  EXPECT_FALSE(
      GammaTransferModel::ForRateMixture({0.5, 0.5}, {1e6, -2e6}, kMean, kVar)
          .ok());
  EXPECT_TRUE(
      GammaTransferModel::ForRateMixture({0.5, 0.5}, {1e6, 2e6}, kMean, kVar)
          .ok());
}

TEST(PlacementIntegrationTest, UniformMixtureMatchesForMultiZone) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  auto placement =
      disk::PlacementModel::Create(viking, disk::PlacementConfig{});
  ASSERT_TRUE(placement.ok());
  auto via_mixture = GammaTransferModel::ForRateMixture(
      placement->probabilities(), placement->rates(), kMean, kVar);
  auto direct = GammaTransferModel::ForMultiZone(viking, kMean, kVar);
  ASSERT_TRUE(via_mixture.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(via_mixture->mean(), direct->mean(), 1e-15);
  EXPECT_NEAR(via_mixture->variance(), direct->variance(), 1e-18);
}

TEST(PlacementIntegrationTest, CapacityOrdering) {
  // Analytic N_max: outer-zones > track-pairing > uniform (outer zones are
  // simply faster; pairing only removes rate variance).
  const int uniform =
      MaxStreamsByLateProbability(ModelForPlacement({}), kRound, 0.01);
  disk::PlacementConfig outer;
  outer.strategy = disk::PlacementStrategy::kOuterZones;
  outer.outer_zone_count = 5;
  const int outer_nmax =
      MaxStreamsByLateProbability(ModelForPlacement(outer), kRound, 0.01);
  disk::PlacementConfig pairing;
  pairing.strategy = disk::PlacementStrategy::kTrackPairing;
  const int pairing_nmax =
      MaxStreamsByLateProbability(ModelForPlacement(pairing), kRound, 0.01);

  EXPECT_EQ(uniform, 26);  // the paper's configuration
  EXPECT_GT(outer_nmax, uniform);
  EXPECT_GE(pairing_nmax, uniform);
}

TEST(PlacementIntegrationTest, SimulationConfirmsOuterZoneGain) {
  // Simulate N = 28 (glitchy under uniform placement) with outer-5
  // placement: the glitch probability must drop substantially.
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(kMean, kVar));

  sim::SimulatorConfig config;
  config.round_length_s = kRound;
  config.seed = 23;
  auto uniform_sim = sim::RoundSimulator::Create(
      viking, disk::QuantumViking2100Seek(), 28,
      sim::RoundSimulator::IidFactory(sizes), config);
  ASSERT_TRUE(uniform_sim.ok());
  const double uniform_plate =
      uniform_sim->EstimateLateProbability(20000).point;

  config.placement.strategy = disk::PlacementStrategy::kOuterZones;
  config.placement.outer_zone_count = 5;
  auto outer_sim = sim::RoundSimulator::Create(
      viking, disk::QuantumViking2100Seek(), 28,
      sim::RoundSimulator::IidFactory(sizes), config);
  ASSERT_TRUE(outer_sim.ok());
  const double outer_plate = outer_sim->EstimateLateProbability(20000).point;

  EXPECT_GT(uniform_plate, 0.002);
  EXPECT_LT(outer_plate, 0.5 * uniform_plate);
}

}  // namespace
}  // namespace zonestream::core
