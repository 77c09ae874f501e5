// Multi-zone disk geometry (§2.2 of the paper).
//
// A multi-zone disk groups adjacent cylinders into Z zones; outer zones have
// more sectors per track and therefore a higher transfer rate at constant
// angular velocity. Following eq. (3.2.2)/(3.2.3), track capacities increase
// linearly from C_min (innermost zone 1) to C_max (outermost zone Z), all
// zones span the same number of cylinders, and zone i's transfer rate is
// R_i = C_i / ROT.
#ifndef ZONESTREAM_DISK_DISK_GEOMETRY_H_
#define ZONESTREAM_DISK_DISK_GEOMETRY_H_

#include <vector>

#include "common/status.h"
#include "disk/alias_table.h"
#include "numeric/random.h"

namespace zonestream::disk {

// User-facing description of a multi-zone disk. All byte quantities are in
// bytes, times in seconds.
struct DiskParameters {
  int cylinders = 0;                    // CYL, total cylinder count
  int zones = 0;                        // Z >= 1
  double rotation_time_s = 0.0;         // ROT, time of one revolution
  double innermost_track_bytes = 0.0;   // C_min
  double outermost_track_bytes = 0.0;   // C_max (== C_min for single-zone)
  // Head-switch overhead per track crossed during a transfer. Following
  // the paper's remark that the transfer rate "is a function of the
  // revolution speed and the head switch time", it is folded into the
  // effective zone rates: R_i = C_i / (ROT + head_switch). 0 (the
  // default) reproduces the paper's Table 1 numbers exactly.
  double head_switch_time_s = 0.0;
};

// One zone of the disk. Zones are numbered 0..Z-1 from innermost to
// outermost (the paper numbers 1..Z; we use 0-based indices in code and
// 1-based numbering only in printed tables).
struct ZoneInfo {
  int index = 0;                 // 0-based zone index
  int first_cylinder = 0;        // inclusive
  int num_cylinders = 0;
  double track_capacity_bytes = 0.0;  // C_i
  double transfer_rate_bps = 0.0;     // R_i = C_i / ROT
  double hit_probability = 0.0;       // C_i / C  (uniform-over-capacity)
};

// A position on the disk selected uniformly over stored bytes.
struct DiskPosition {
  int zone = 0;       // 0-based zone index
  int cylinder = 0;   // absolute cylinder
  double transfer_rate_bps = 0.0;
};

// An explicitly measured zone-table entry (for drives whose zone layout
// is known exactly rather than approximated by the linear ramp).
struct ZoneSpec {
  int num_cylinders = 0;
  double track_capacity_bytes = 0.0;
};

// Immutable multi-zone disk geometry. Construct via Create(); invalid
// parameter combinations are rejected with a Status.
class DiskGeometry {
 public:
  // Validates `params` and builds the zone table using the paper's linear
  // capacity ramp (eq. 3.2.2) with equal cylinders per zone.
  static common::StatusOr<DiskGeometry> Create(const DiskParameters& params);

  // Builds from an explicitly measured zone table (innermost first).
  // Capacities must be positive and non-decreasing outward; cylinder
  // counts positive. This is how real drives — whose zone tables are not
  // exactly linear — plug into the model: the analytic machinery
  // (hit probabilities, inverse-rate moments, sampling) consumes the
  // explicit table directly.
  static common::StatusOr<DiskGeometry> CreateFromZoneTable(
      const std::vector<ZoneSpec>& zones, double rotation_time_s);

  const DiskParameters& params() const { return params_; }
  int cylinders() const { return params_.cylinders; }
  int num_zones() const { return params_.zones; }
  double rotation_time() const { return params_.rotation_time_s; }

  // Zone accessors. `index` is 0-based.
  const ZoneInfo& zone(int index) const;
  const std::vector<ZoneInfo>& zones() const { return zones_; }

  // Zone containing the given absolute cylinder.
  const ZoneInfo& ZoneOfCylinder(int cylinder) const;

  // Track capacity of zone `index` (eq. 3.2.2).
  double TrackCapacity(int index) const { return zone(index).track_capacity_bytes; }
  // Transfer rate of zone `index` (eq. 3.2.3).
  double TransferRate(int index) const { return zone(index).transfer_rate_bps; }

  // Slowest / fastest / capacity-weighted-mean transfer rates.
  double MinTransferRate() const { return zones_.front().transfer_rate_bps; }
  double MaxTransferRate() const { return zones_.back().transfer_rate_bps; }
  double MeanTransferRate() const;

  // P[transfer rate R <= R_i] for the 0-based zone index (eq. 3.2.1/3.2.4).
  double RateCdfAtZone(int index) const;

  // Exact moments of 1/R under the uniform-over-capacity placement:
  // E[(1/R)^k] = sum_i (C_i/C) * R_i^{-k}. The multi-zone transfer model
  // consumes the first two.
  double InverseRateMoment(int k) const;

  // Transfer time of `bytes` stored in zone `zone_index` (pure transfer,
  // excluding seek and rotational latency): bytes / R_i.
  double TransferTime(double bytes, int zone_index) const;

  // Samples a position uniformly over stored bytes: zone with probability
  // C_i/C, cylinder uniform within the zone (all tracks of a zone hold the
  // same amount, so uniform-over-capacity is uniform-over-cylinders within
  // a zone).
  DiskPosition SampleUniformPosition(numeric::Rng* rng) const;

  // O(1) zone draw over the same C_i/C hit probabilities via the
  // precomputed alias table (replaces the per-sample CDF binary search).
  // One uniform in, a 0-based zone index out. The round executors draw
  // whole batches of zones and cylinders through disk::ZonePositionSampler
  // (disk/zone_position_sampler.h), built from this table.
  int SampleZoneAlias(double u01) const { return zone_alias_.Sample(u01); }

  // The zone-hit alias table itself (built once at geometry creation).
  const AliasTable& zone_alias() const { return zone_alias_; }

  // Total stored bytes per cylinder-track sweep: C = sum_i C_i (the paper's
  // normalizing constant, one representative track per zone).
  double TotalTrackCapacity() const { return total_track_capacity_; }

 private:
  DiskGeometry() = default;

  // Builds zone_alias_ from the zones' hit probabilities (both factories).
  void BuildZoneAlias();

  DiskParameters params_;
  std::vector<ZoneInfo> zones_;
  std::vector<double> cumulative_hit_;  // prefix sums of hit probabilities
  AliasTable zone_alias_;               // O(1) zone-hit sampling
  double total_track_capacity_ = 0.0;
};

}  // namespace zonestream::disk

#endif  // ZONESTREAM_DISK_DISK_GEOMETRY_H_
