// The batched position sampler against its scalar definition: on every
// SIMD tier the host supports (numeric::ForceSimdTier caps at the detected
// tier), each draw must equal AliasTable::Sample on the zone uniform plus
// the clamped cylinder offset within the zone, at the law's rate for that
// zone — at every batch length around the 4- and 8-lane blocks, at both
// ends of [0, 1), on zone counts on both sides of the AVX-512 tier's
// 32-entry register tables, and on placement laws with zero-weight zones
// and rates no zone has on its own.
#include "disk/zone_position_sampler.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "disk/alias_table.h"
#include "disk/disk_geometry.h"
#include "disk/placement.h"
#include "disk/presets.h"
#include "numeric/random.h"
#include "numeric/simd.h"

namespace zonestream::disk {
namespace {

using numeric::SimdTier;

class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier) { numeric::ForceSimdTier(tier); }
  ~ScopedTier() { numeric::ForceSimdTier(numeric::DetectedSimdTier()); }
};

constexpr double kLargestBelowOne = 0x1.fffffffffffffp-1;

// An exponentially tilted zone law like the importance sampler's: each
// zone's hit probability times (1 - theta s_z)^-k.
AliasTable TiltedLaw(const DiskGeometry& geometry) {
  std::vector<double> weights;
  for (const ZoneInfo& zi : geometry.zones()) {
    weights.push_back(zi.hit_probability *
                      std::pow(1.0 - 2.0e5 / zi.transfer_rate_bps, -4.0));
  }
  return AliasTable::Build(weights);
}

// The geometry's own zone rates.
std::vector<double> OwnRates(const DiskGeometry& geometry) {
  std::vector<double> rates;
  for (const ZoneInfo& zi : geometry.zones()) {
    rates.push_back(zi.transfer_rate_bps);
  }
  return rates;
}

void ExpectMatchesDefinition(const DiskGeometry& geometry,
                             const AliasTable& law,
                             const std::vector<double>& rates,
                             const std::string& label) {
  const ZonePositionSampler sampler(geometry, law, rates);
  numeric::Rng rng(4242);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(81);
  for (const size_t n : lengths) {
    std::vector<double> u_zone(n);
    std::vector<double> u_cylinder(n);
    for (size_t i = 0; i < n; ++i) {
      // Every third request pins one or both uniforms to an end of
      // [0, 1); the rest are random.
      u_zone[i] = rng.Uniform01();
      u_cylinder[i] = rng.Uniform01();
      switch (i % 6) {
        case 0:
          u_zone[i] = 0.0;
          u_cylinder[i] = 0.0;
          break;
        case 2:
          u_zone[i] = kLargestBelowOne;
          u_cylinder[i] = kLargestBelowOne;
          break;
        case 4:
          u_zone[i] = (i % 4 == 0) ? 0.0 : kLargestBelowOne;
          u_cylinder[i] = (i % 4 == 0) ? kLargestBelowOne : 0.0;
          break;
        default:
          break;
      }
    }
    std::vector<int> zone(n);
    std::vector<int> cylinder(n);
    std::vector<double> rate(n);
    for (size_t i = 0; i < n; ++i) {
      const int z = law.Sample(u_zone[i]);
      const ZoneInfo& zi = geometry.zone(z);
      int offset = static_cast<int>(u_cylinder[i] * zi.num_cylinders);
      if (offset >= zi.num_cylinders) offset = zi.num_cylinders - 1;
      zone[i] = z;
      cylinder[i] = zi.first_cylinder + offset;
      rate[i] = rates[z];
    }
    for (const SimdTier tier :
         {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
      ScopedTier forced(tier);
      const std::string where = label + " n=" + std::to_string(n) +
                                " tier=" + numeric::SimdTierName(tier);
      std::vector<int> got_zone(n, -1);
      std::vector<int> got_cylinder(n, -1);
      std::vector<double> got_rate(n, -1.0);
      sampler.Sample(u_zone.data(), u_cylinder.data(), n, got_zone.data(),
                     got_cylinder.data(), got_rate.data());
      EXPECT_EQ(got_zone, zone) << where;
      EXPECT_EQ(got_cylinder, cylinder) << where;
      EXPECT_EQ(got_rate, rate) << where;
      // Without a rate column the zones and cylinders are unchanged.
      std::vector<int> zone_only(n, -1);
      std::vector<int> cylinder_only(n, -1);
      sampler.Sample(u_zone.data(), u_cylinder.data(), n, zone_only.data(),
                     cylinder_only.data(), nullptr);
      EXPECT_EQ(zone_only, zone) << where;
      EXPECT_EQ(cylinder_only, cylinder) << where;
    }
  }
}

// A geometry of `zones` zones whose every column differs from zone to
// zone.
DiskGeometry SyntheticZones(int zones) {
  std::vector<ZoneSpec> table;
  for (int z = 0; z < zones; ++z) {
    table.push_back({100 + 7 * z, 40e3 + 1e3 * z});
  }
  auto geometry = DiskGeometry::CreateFromZoneTable(table, 0.0111);
  ZS_CHECK(geometry.ok());
  return *std::move(geometry);
}

// Every preset, and the AVX-512 tier's register limit: 32 zones fill its
// tables, 33 take the scalar loop there. Each geometry runs its own law,
// a tilted one, and the outer-zone and track-pairing placements' laws
// (zero weight on the zones they leave out; track pairs at their
// harmonic-mean rates).
TEST(ZonePositionSamplerTest, MatchesAliasSampleAndClampOnEveryTier) {
  const std::vector<std::pair<std::string, DiskGeometry>> geometries = {
      {"single-zone", SingleZoneViking()},
      {"small", SyntheticSmallDisk()},
      {"viking", QuantumViking2100()},
      {"fast", SyntheticFastDisk()},
      {"32-zone", SyntheticZones(32)},
      {"33-zone", SyntheticZones(33)},
  };
  for (const auto& [name, geometry] : geometries) {
    const std::vector<double> own = OwnRates(geometry);
    ExpectMatchesDefinition(geometry, geometry.zone_alias(), own,
                            name + " nominal");
    ExpectMatchesDefinition(geometry, TiltedLaw(geometry), own,
                            name + " tilted");
    const PlacementConfig outer{PlacementStrategy::kOuterZones,
                                (geometry.num_zones() + 1) / 2};
    const PlacementConfig pairing{PlacementStrategy::kTrackPairing, 0};
    for (const auto& [placement_name, config] :
         {std::pair{"outer", outer}, std::pair{"pairing", pairing}}) {
      auto placement = PlacementModel::Create(geometry, config);
      ASSERT_TRUE(placement.ok());
      ExpectMatchesDefinition(geometry,
                              AliasTable::Build(placement->zone_weights()),
                              placement->zone_rates(),
                              name + " " + placement_name);
    }
  }
  EXPECT_EQ(SingleZoneViking().num_zones(), 1);
  EXPECT_EQ(SyntheticSmallDisk().num_zones(), 4);
  EXPECT_EQ(QuantumViking2100().num_zones(), 15);
  EXPECT_EQ(SyntheticFastDisk().num_zones(), 30);
}

TEST(ZonePositionSamplerTest, DefaultLawIsTheGeometrysAliasTable) {
  const DiskGeometry geometry = QuantumViking2100();
  const ZonePositionSampler nominal(geometry);
  const ZonePositionSampler explicit_law(geometry, geometry.zone_alias(),
                                         OwnRates(geometry));
  numeric::Rng rng(7);
  std::vector<double> u(2 * 26);
  rng.FillUniform01(u.data(), u.size());
  std::vector<int> zone_a(26), zone_b(26), cylinder_a(26), cylinder_b(26);
  nominal.Sample(u.data(), u.data() + 26, 26, zone_a.data(),
                 cylinder_a.data(), nullptr);
  explicit_law.Sample(u.data(), u.data() + 26, 26, zone_b.data(),
                      cylinder_b.data(), nullptr);
  EXPECT_EQ(zone_a, zone_b);
  EXPECT_EQ(cylinder_a, cylinder_b);
}

}  // namespace
}  // namespace zonestream::disk
