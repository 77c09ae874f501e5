// Vose alias method for O(1) sampling from a discrete distribution.
//
// The simulator samples a zone (or placement component) per request, per
// round, per replication — millions of draws against the same fixed
// C_i/C weights. A binary search over the cumulative hit probabilities
// costs O(log Z) with data-dependent branches; the alias table answers
// the same draw with one multiply, one floor, and one compare against a
// precomputed per-bucket threshold. Built once per geometry/placement
// (O(Z)); numerically exact in the sense that every bucket's threshold
// and alias are derived from the normalized weights with only rounding
// error (the chi-square equivalence test in tests/disk/alias_table_test.cc
// pins the sampled frequencies to the exact probabilities).
#ifndef ZONESTREAM_DISK_ALIAS_TABLE_H_
#define ZONESTREAM_DISK_ALIAS_TABLE_H_

#include <cstddef>
#include <vector>

#include "numeric/random.h"

namespace zonestream::disk {

// Immutable alias table over indices 0..n-1 with probabilities
// proportional to the construction weights.
class AliasTable {
 public:
  AliasTable() = default;

  // Builds from non-negative weights (at least one strictly positive);
  // weights need not be normalized.
  static AliasTable Build(const std::vector<double>& weights);

  // Maps one uniform u in [0, 1) to an index: bucket i = floor(u * n),
  // fractional part against the bucket's threshold picks i or alias[i].
  int Sample(double u01) const {
    const double scaled = u01 * static_cast<double>(threshold_.size());
    size_t bucket = static_cast<size_t>(scaled);
    // u01 just below 1.0 can scale to exactly n under rounding.
    if (bucket >= threshold_.size()) bucket = threshold_.size() - 1;
    const double fraction = scaled - static_cast<double>(bucket);
    return fraction < threshold_[bucket] ? static_cast<int>(bucket)
                                         : alias_[bucket];
  }

  // Convenience: draws the uniform from `rng` (one draw per sample).
  int Sample(numeric::Rng* rng) const { return Sample(rng->Uniform01()); }

  size_t size() const { return threshold_.size(); }
  bool empty() const { return threshold_.empty(); }

  // Bucket i's accept-own threshold and fallback index (the batched
  // position sampler copies them into its columns).
  double threshold(size_t i) const { return threshold_[i]; }
  int alias(size_t i) const { return alias_[i]; }

  // Exact sampling probability of index i implied by the table
  // (reconstructed from thresholds and aliases; for tests/diagnostics).
  std::vector<double> Probabilities() const;

 private:
  std::vector<double> threshold_;  // accept-own probability per bucket
  std::vector<int> alias_;         // fallback index per bucket
};

}  // namespace zonestream::disk

#endif  // ZONESTREAM_DISK_ALIAS_TABLE_H_
