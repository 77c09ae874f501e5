#include "disk/placement.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace zonestream::disk {

PlacementModel::PlacementModel(const DiskGeometry& geometry,
                               const PlacementConfig& config,
                               std::vector<double> probabilities,
                               std::vector<double> rates,
                               const std::vector<int>& component_zones,
                               double usable_capacity_fraction)
    : config_(config),
      probabilities_(std::move(probabilities)),
      rates_(std::move(rates)),
      zone_weights_(geometry.zones().size(), 0.0),
      usable_capacity_fraction_(usable_capacity_fraction) {
  double sum = 0.0;
  for (double p : probabilities_) sum += p;
  ZS_CHECK(std::fabs(sum - 1.0) < 1e-9);
  for (const ZoneInfo& zone : geometry.zones()) {
    zone_rates_.push_back(zone.transfer_rate_bps);
  }
  for (size_t i = 0; i < probabilities_.size(); ++i) {
    zone_weights_[component_zones[i]] = probabilities_[i];
    zone_rates_[component_zones[i]] = rates_[i];
  }
}

common::StatusOr<PlacementModel> PlacementModel::Create(
    const DiskGeometry& geometry, const PlacementConfig& config) {
  const int z = geometry.num_zones();
  std::vector<double> probabilities;
  std::vector<double> rates;
  std::vector<int> component_zones;
  double usable = 1.0;

  switch (config.strategy) {
    case PlacementStrategy::kUniformAllZones: {
      for (const ZoneInfo& zone : geometry.zones()) {
        probabilities.push_back(zone.hit_probability);
        rates.push_back(zone.transfer_rate_bps);
        component_zones.push_back(zone.index);
      }
      break;
    }
    case PlacementStrategy::kOuterZones: {
      const int k = config.outer_zone_count;
      if (k < 1 || k > z) {
        return common::Status::InvalidArgument(
            "outer_zone_count must be in [1, Z]");
      }
      // Weight by stored bytes (the zones' hit probabilities), which is
      // exact for both the linear ramp and explicit zone tables.
      double outer_share = 0.0;
      for (int i = z - k; i < z; ++i) {
        outer_share += geometry.zone(i).hit_probability;
      }
      for (int i = z - k; i < z; ++i) {
        probabilities.push_back(geometry.zone(i).hit_probability /
                                outer_share);
        rates.push_back(geometry.TransferRate(i));
        component_zones.push_back(i);
      }
      usable = outer_share;
      break;
    }
    case PlacementStrategy::kTrackPairing: {
      // Pair zone i with zone z-1-i. With the linear capacity ramp the
      // pair capacity C_i + C_{z-1-i} is constant, so pairs are hit
      // uniformly. An odd middle zone pairs with itself.
      const int pairs = (z + 1) / 2;
      for (int i = 0; i < pairs; ++i) {
        const int j = z - 1 - i;
        const double r_i = geometry.TransferRate(i);
        const double r_j = geometry.TransferRate(j);
        // Half the bytes at each rate -> harmonic-mean effective rate.
        const double effective = 2.0 / (1.0 / r_i + 1.0 / r_j);
        probabilities.push_back(1.0 / pairs);
        rates.push_back(effective);
        component_zones.push_back(i);
      }
      // Renormalize by the pairs' true stored-byte shares — exact for the
      // linear ramp (where pairs are equal except an odd middle zone) and
      // for explicit zone tables (where pair capacities vary freely).
      {
        std::vector<double> weights(pairs);
        double total = 0.0;
        for (int i = 0; i < pairs; ++i) {
          const int j = z - 1 - i;
          weights[i] = geometry.zone(i).hit_probability +
                       (i == j ? 0.0 : geometry.zone(j).hit_probability);
          total += weights[i];
        }
        for (int i = 0; i < pairs; ++i) probabilities[i] = weights[i] / total;
      }
      break;
    }
  }
  return PlacementModel(geometry, config, std::move(probabilities),
                        std::move(rates), component_zones, usable);
}

double PlacementModel::InverseRateMoment(int k) const {
  ZS_CHECK_GE(k, 1);
  double moment = 0.0;
  for (size_t i = 0; i < rates_.size(); ++i) {
    moment += probabilities_[i] * std::pow(rates_[i], -static_cast<double>(k));
  }
  return moment;
}

}  // namespace zonestream::disk
