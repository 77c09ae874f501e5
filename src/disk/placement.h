// Zone-aware placement strategies (§2.2 outlook; [Bir95], [TKKD96]).
//
// The paper places data uniformly over all sectors and leaves
// placement optimization as future work. This module implements the two
// classic alternatives it cites, as an ablation axis:
//
//  * kOuterZones — store continuous data only on the outermost k zones:
//    higher and less variable transfer rates at the cost of usable
//    capacity (a k/Z-ish fraction of the disk).
//  * kTrackPairing — Birk's track pairing: each fragment is split between
//    zone i and its mirror zone Z-1-i, so every fragment sees the same
//    pair-average rate; with the linear capacity ramp, pair capacities
//    C_i + C_{Z-1-i} are constant, hence pairs are hit uniformly. Rate
//    variability collapses (variance across pairs of the harmonic mean is
//    tiny). Modeled optimistically with no extra intra-pair seek (as with
//    a serpentine layout); treat the resulting capacity gain as an upper
//    bound of the technique's benefit.
//
// A PlacementModel exposes the induced discrete transfer-rate mixture
// (for the analytic transform) and the same mixture as a law over the
// disk's zones, which disk::ZonePositionSampler draws for the simulators.
#ifndef ZONESTREAM_DISK_PLACEMENT_H_
#define ZONESTREAM_DISK_PLACEMENT_H_

#include <vector>

#include "common/status.h"
#include "disk/disk_geometry.h"

namespace zonestream::disk {

// Placement strategy selector.
enum class PlacementStrategy {
  kUniformAllZones,  // the paper's assumption
  kOuterZones,       // outermost `outer_zone_count` zones only
  kTrackPairing,     // Birk-style mirrored zone pairs
};

// Strategy configuration.
struct PlacementConfig {
  PlacementStrategy strategy = PlacementStrategy::kUniformAllZones;
  int outer_zone_count = 0;  // for kOuterZones; must be in [1, Z]
};

// Immutable placement model bound to one geometry.
class PlacementModel {
 public:
  static common::StatusOr<PlacementModel> Create(
      const DiskGeometry& geometry, const PlacementConfig& config);

  const PlacementConfig& config() const { return config_; }

  // The induced transfer-rate mixture: component probabilities and
  // effective rates (bytes/second).
  const std::vector<double>& probabilities() const { return probabilities_; }
  const std::vector<double>& rates() const { return rates_; }

  // E[(1/R)^k] under the mixture.
  double InverseRateMoment(int k) const;

  // Fraction of the disk's stored bytes usable under this placement
  // (1.0 for uniform and track pairing; k-zone share for kOuterZones).
  double usable_capacity_fraction() const {
    return usable_capacity_fraction_;
  }

  // The mixture as a law over the geometry's zones, one entry per zone:
  // component i's probability on the zone that hosts it (for track
  // pairing, the pair's first half) and zero on every other zone, and
  // each zone's transfer rate: component i's rate on its zone (a track
  // pair's harmonic-mean rate is no single zone's own), the zone's own
  // rate where no component sits. Under uniform placement both are the
  // geometry's own columns, double for double.
  const std::vector<double>& zone_weights() const { return zone_weights_; }
  const std::vector<double>& zone_rates() const { return zone_rates_; }

 private:
  PlacementModel(const DiskGeometry& geometry, const PlacementConfig& config,
                 std::vector<double> probabilities, std::vector<double> rates,
                 const std::vector<int>& component_zones,
                 double usable_capacity_fraction);

  PlacementConfig config_;
  std::vector<double> probabilities_;
  std::vector<double> rates_;
  std::vector<double> zone_weights_;
  std::vector<double> zone_rates_;
  double usable_capacity_fraction_;
};

}  // namespace zonestream::disk

#endif  // ZONESTREAM_DISK_PLACEMENT_H_
