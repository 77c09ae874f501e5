// Client-buffer prefetching (the §6 outlook: "buffering data on the
// server and/or the client would enable a more efficient disk scheduling
// by preloading fragments ahead of time and saving resources for
// heavy-load periods").
//
// Each stream owns a client buffer of up to `buffer_fragments` prefetched
// fragments. Per round:
//   1. streams with an empty buffer issue a *mandatory* request (their
//      display stalls — a glitch — if it misses the round deadline);
//      streams with buffered data consume one buffered fragment instead;
//   2. after the mandatory SCAN batch, the leftover round time prefetches
//      upcoming fragments for the streams with the lowest buffer levels.
// The long-run load is unchanged (one fragment per stream per round);
// prefetching only moves work from overloaded rounds into idle ones,
// absorbing service-time variance. buffer_fragments = 0 reproduces the
// paper's bufferless model exactly.
#ifndef ZONESTREAM_SIM_PREFETCH_SIMULATOR_H_
#define ZONESTREAM_SIM_PREFETCH_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"
#include "numeric/random.h"
#include "sched/ordering.h"
#include "sched/scan_kernel.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {

// Prefetch simulation knobs.
struct PrefetchSimulatorConfig {
  double round_length_s = 1.0;
  int buffer_fragments = 2;  // client buffer capacity (0 = paper's model)
  uint64_t seed = 42;
};

// Aggregates of a prefetch simulation run.
struct PrefetchRunResult {
  int64_t rounds = 0;
  int64_t stream_rounds = 0;        // rounds x streams
  int64_t glitches = 0;             // display stalls
  double glitch_rate = 0.0;         // glitches / stream_rounds
  int64_t mandatory_requests = 0;   // buffer-empty fetches
  int64_t prefetched_fragments = 0; // fetched ahead of time
  double mean_buffer_level = 0.0;   // average buffered fragments per stream
};

// Single-disk prefetching simulator. Not thread-safe.
class PrefetchRoundSimulator {
 public:
  static common::StatusOr<PrefetchRoundSimulator> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      int num_streams,
      std::shared_ptr<const workload::SizeDistribution> sizes,
      const PrefetchSimulatorConfig& config);

  // Simulates `rounds` rounds (the first `warmup` rounds fill buffers and
  // are excluded from the statistics).
  PrefetchRunResult Run(int rounds, int warmup = 50);

 private:
  PrefetchRoundSimulator(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      int num_streams,
      std::shared_ptr<const workload::SizeDistribution> sizes,
      const PrefetchSimulatorConfig& config);

  disk::DiskGeometry geometry_;
  disk::SeekTimeModel seek_;
  int num_streams_;
  std::shared_ptr<const workload::SizeDistribution> sizes_;
  PrefetchSimulatorConfig config_;
  numeric::Rng rng_;
  sched::Arm arm_;
  std::vector<int> buffered_;  // fragments buffered ahead, per stream
  // This round's mandatory batch in issue order, and its sweep.
  std::vector<int> cylinder_;
  std::vector<double> rotation_s_;
  std::vector<double> bytes_;
  std::vector<double> rate_bps_;
  sched::ScanKernel sweep_;
};

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_PREFETCH_SIMULATOR_H_
