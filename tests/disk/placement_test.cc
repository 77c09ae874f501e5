#include "disk/placement.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disk/alias_table.h"
#include "disk/presets.h"
#include "disk/zone_position_sampler.h"
#include "numeric/random.h"

namespace zonestream::disk {
namespace {

TEST(PlacementTest, CreateValidation) {
  const DiskGeometry viking = QuantumViking2100();
  PlacementConfig config;
  config.strategy = PlacementStrategy::kOuterZones;
  config.outer_zone_count = 0;
  EXPECT_FALSE(PlacementModel::Create(viking, config).ok());
  config.outer_zone_count = 16;  // > Z
  EXPECT_FALSE(PlacementModel::Create(viking, config).ok());
  config.outer_zone_count = 15;
  EXPECT_TRUE(PlacementModel::Create(viking, config).ok());
}

TEST(PlacementTest, UniformMatchesGeometry) {
  const DiskGeometry viking = QuantumViking2100();
  auto placement = PlacementModel::Create(viking, PlacementConfig{});
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ(placement->rates().size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(placement->probabilities()[i],
                     viking.zone(i).hit_probability);
    EXPECT_DOUBLE_EQ(placement->rates()[i], viking.TransferRate(i));
  }
  EXPECT_NEAR(placement->InverseRateMoment(1), viking.InverseRateMoment(1),
              1e-18);
  EXPECT_DOUBLE_EQ(placement->usable_capacity_fraction(), 1.0);
  // The zone law is the geometry's own, double for double, so its alias
  // table is the geometry's and every default-placement draw is unchanged.
  ASSERT_EQ(placement->zone_weights().size(), 15u);
  ASSERT_EQ(placement->zone_rates().size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(placement->zone_weights()[i], viking.zone(i).hit_probability);
    EXPECT_EQ(placement->zone_rates()[i], viking.TransferRate(i));
  }
  const AliasTable law = AliasTable::Build(placement->zone_weights());
  ASSERT_EQ(law.size(), viking.zone_alias().size());
  for (size_t b = 0; b < law.size(); ++b) {
    EXPECT_EQ(law.threshold(b), viking.zone_alias().threshold(b));
    EXPECT_EQ(law.alias(b), viking.zone_alias().alias(b));
  }
}

TEST(PlacementTest, OuterZonesRestrictsSupportAndRaisesRate) {
  const DiskGeometry viking = QuantumViking2100();
  PlacementConfig config;
  config.strategy = PlacementStrategy::kOuterZones;
  config.outer_zone_count = 5;
  auto placement = PlacementModel::Create(viking, config);
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ(placement->rates().size(), 5u);
  // All rates come from the outermost 5 zones.
  for (double rate : placement->rates()) {
    EXPECT_GE(rate, viking.TransferRate(10));
  }
  // Mean 1/R drops (faster service).
  EXPECT_LT(placement->InverseRateMoment(1), viking.InverseRateMoment(1));
  // Usable capacity shrinks to the outer-5 share (> 5/15 because outer
  // tracks hold more).
  EXPECT_GT(placement->usable_capacity_fraction(), 5.0 / 15.0);
  EXPECT_LT(placement->usable_capacity_fraction(), 0.5);
  // Probabilities sum to 1.
  double sum = 0.0;
  for (double p : placement->probabilities()) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(PlacementTest, TrackPairingCollapsesRateVariance) {
  const DiskGeometry viking = QuantumViking2100();
  PlacementConfig config;
  config.strategy = PlacementStrategy::kTrackPairing;
  auto placement = PlacementModel::Create(viking, config);
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ(placement->rates().size(), 8u);  // ceil(15/2) pairs

  // Variance of 1/R: pairing must reduce it by a large factor.
  const double uniform_var =
      viking.InverseRateMoment(2) -
      viking.InverseRateMoment(1) * viking.InverseRateMoment(1);
  const double paired_var =
      placement->InverseRateMoment(2) -
      placement->InverseRateMoment(1) * placement->InverseRateMoment(1);
  EXPECT_LT(paired_var, uniform_var / 20.0);
  EXPECT_DOUBLE_EQ(placement->usable_capacity_fraction(), 1.0);
}

TEST(PlacementTest, TrackPairingEffectiveRatesAreHarmonicMeans) {
  const DiskGeometry viking = QuantumViking2100();
  PlacementConfig config;
  config.strategy = PlacementStrategy::kTrackPairing;
  auto placement = PlacementModel::Create(viking, config);
  ASSERT_TRUE(placement.ok());
  const double r0 = viking.TransferRate(0);
  const double r14 = viking.TransferRate(14);
  EXPECT_NEAR(placement->rates()[0], 2.0 / (1.0 / r0 + 1.0 / r14), 1e-9);
  // The middle zone (index 7) pairs with itself.
  EXPECT_NEAR(placement->rates()[7], viking.TransferRate(7), 1e-9);
}

TEST(PlacementTest, SamplePositionsFollowTheMixture) {
  // The outer-3 placement's zone law through the batched position
  // sampler: only zones 12-14, each at its component's share and rate.
  const DiskGeometry viking = QuantumViking2100();
  PlacementConfig config;
  config.strategy = PlacementStrategy::kOuterZones;
  config.outer_zone_count = 3;
  auto placement = PlacementModel::Create(viking, config);
  ASSERT_TRUE(placement.ok());
  const ZonePositionSampler sampler(
      viking, AliasTable::Build(placement->zone_weights()),
      placement->zone_rates());
  constexpr size_t kSamples = 60000;
  numeric::Rng rng(8);
  std::vector<double> u(2 * kSamples);
  rng.FillUniform01(u.data(), u.size());
  std::vector<int> zone(kSamples);
  std::vector<int> cylinder(kSamples);
  std::vector<double> rate(kSamples);
  sampler.Sample(u.data(), u.data() + kSamples, kSamples, zone.data(),
                 cylinder.data(), rate.data());
  std::vector<int> counts(3, 0);
  for (size_t i = 0; i < kSamples; ++i) {
    ASSERT_GE(zone[i], 12);
    ASSERT_LT(zone[i], 15);
    const ZoneInfo& zi = viking.zone(zone[i]);
    ASSERT_GE(cylinder[i], zi.first_cylinder);
    ASSERT_LT(cylinder[i], zi.first_cylinder + zi.num_cylinders);
    ASSERT_EQ(rate[i], placement->rates()[zone[i] - 12]);
    ++counts[zone[i] - 12];
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kSamples,
                placement->probabilities()[i], 0.01);
  }
}

TEST(PlacementTest, ComponentAliasMatchesMixtureProbabilities) {
  // Track pairing's zone law: pair i's probability and harmonic-mean rate
  // on zone i, zero weight on the 7 zones that host no pair's first half
  // (they keep their own rates), and an alias table over it that draws
  // each pair at its probability and never a zero-weight zone.
  const DiskGeometry viking = QuantumViking2100();
  PlacementConfig config;
  config.strategy = PlacementStrategy::kTrackPairing;
  auto placement = PlacementModel::Create(viking, config);
  ASSERT_TRUE(placement.ok());
  const std::vector<double>& probabilities = placement->probabilities();
  const std::vector<double>& weights = placement->zone_weights();
  const std::vector<double>& rates = placement->zone_rates();
  ASSERT_EQ(probabilities.size(), 8u);
  ASSERT_EQ(weights.size(), 15u);
  ASSERT_EQ(rates.size(), 15u);
  for (int z = 0; z < 15; ++z) {
    if (z < 8) {
      EXPECT_EQ(weights[z], probabilities[z]);
      EXPECT_EQ(rates[z], placement->rates()[z]);
    } else {
      EXPECT_EQ(weights[z], 0.0);
      EXPECT_EQ(rates[z], viking.TransferRate(z));
    }
  }
  const AliasTable law = AliasTable::Build(weights);
  numeric::Rng rng(9);
  std::vector<int> counts(15, 0);
  constexpr int kSamples = 60000;
  for (int i = 0; i < kSamples; ++i) ++counts[law.Sample(rng.Uniform01())];
  for (int z = 0; z < 15; ++z) {
    if (z < 8) {
      EXPECT_NEAR(static_cast<double>(counts[z]) / kSamples, probabilities[z],
                  0.01);
    } else {
      EXPECT_EQ(counts[z], 0) << "zone " << z;
    }
  }
}

TEST(PlacementTest, EvenZoneCountPairsCleanly) {
  DiskParameters params = QuantumViking2100Parameters();
  params.zones = 14;
  const auto geometry = DiskGeometry::Create(params);
  ASSERT_TRUE(geometry.ok());
  PlacementConfig config;
  config.strategy = PlacementStrategy::kTrackPairing;
  auto placement = PlacementModel::Create(*geometry, config);
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ(placement->rates().size(), 7u);
  // All pairs equally likely (constant pair capacity under a linear ramp).
  for (double p : placement->probabilities()) {
    EXPECT_NEAR(p, 1.0 / 7.0, 1e-12);
  }
}

}  // namespace
}  // namespace zonestream::disk
