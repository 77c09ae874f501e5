// Batched fragment positions for the round executors (§2.2, §4): a zone
// from an alias table over the disk's zones, then a cylinder uniform
// within that zone, at the law's rate for that zone.
//
// Every round executor draws its positions this way — RoundSimulator
// (under its configured placement), the ImportanceSampler (on a tilted
// zone law for its measured round), MixedRoundSimulator's continuous
// sweep and MediaServer — so the draw lives here once. A placement
// (disk/placement.h) enters as a zone law with its own rate column. The
// alias table and the zone table are copied into structure-of-arrays
// columns at construction, padded to 32 entries. On the AVX-512 tier
// (numeric/simd.h) a law of at most 32 zones (every preset has at most
// 30) keeps each column in registers, and zone choice and cylinder offset
// become per-lane permutes and blends instead of a data-dependent branch
// per request. Laws with more zones, and the AVX2 tier, run the scalar
// loop, which beat a 4-lane gather kernel about 3× (docs/PERFORMANCE.md).
// Both reproduce the scalar expressions of AliasTable::Sample and the
// offset clamp bit for bit (tests/disk/zone_position_sampler_test.cc).
#ifndef ZONESTREAM_DISK_ZONE_POSITION_SAMPLER_H_
#define ZONESTREAM_DISK_ZONE_POSITION_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disk/alias_table.h"
#include "disk/disk_geometry.h"

namespace zonestream::disk {

class ZonePositionSampler {
 public:
  ZonePositionSampler() = default;

  // Over the geometry's own zone law (hit probability C_i/C) at the
  // zones' own rates: uniform over capacity, the paper's placement.
  explicit ZonePositionSampler(const DiskGeometry& geometry);

  // Over `zone_law`, an alias table with one entry per zone of `geometry`
  // (a placement's zone law, or the importance sampler's tilted one),
  // with zone_rate_bps[z] the rate of a fragment drawn on zone z. It
  // need not be the zone's own: a track pair transfers at the harmonic
  // mean of its two zones' rates (PlacementModel::zone_rates).
  ZonePositionSampler(const DiskGeometry& geometry, const AliasTable& zone_law,
                      const std::vector<double>& zone_rate_bps);

  // For each i < n, from the uniforms u_zone[i] and u_cylinder[i] in
  // [0, 1):
  //   zone[i]     = zone_law.Sample(u_zone[i]),
  //   cylinder[i] = the zone's first cylinder
  //                 + min(int(u_cylinder[i] * its cylinders),
  //                       its cylinders - 1),
  //   rate_bps[i] = zone_rate_bps[zone[i]] (skipped when null).
  void Sample(const double* u_zone, const double* u_cylinder, size_t n,
              int* zone, int* cylinder, double* rate_bps) const;

 private:
  size_t zones_ = 0;
  // Alias buckets, then zones; each column is padded with unused entries
  // to the AVX-512 tier's register tables (zone_position_sampler.cc).
  std::vector<double> threshold_;
  std::vector<int32_t> alias_;
  std::vector<int32_t> first_cylinder_;
  std::vector<int32_t> last_offset_;  // cylinders - 1
  std::vector<double> cylinders_;
  std::vector<double> rate_bps_;
};

}  // namespace zonestream::disk

#endif  // ZONESTREAM_DISK_ZONE_POSITION_SAMPLER_H_
