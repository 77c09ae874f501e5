// Detailed simulation of a mixed continuous + discrete workload on one
// disk (validates core::MixedWorkloadModel; §6 outlook / [NMW97]).
//
// Each round: the N continuous requests are served in one SCAN sweep of
// the disk arm (sched::Arm, as in RoundSimulator); queued discrete
// requests are then served work-conserving in the leftover time until the
// round ends, each moving the arm. Discrete requests arrive Poisson and
// queue FCFS; a discrete request whose service would cross the round
// boundary waits for the next round's leftover window.
#ifndef ZONESTREAM_SIM_MIXED_SIMULATOR_H_
#define ZONESTREAM_SIM_MIXED_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"
#include "disk/zone_position_sampler.h"
#include "numeric/random.h"
#include "numeric/statistics.h"
#include "sched/ordering.h"
#include "sched/scan_kernel.h"
#include "workload/size_distribution.h"

namespace zonestream::obs {
class Counter;
class Gauge;
class Histogram;
class Registry;
class RoundTraceRecorder;
}  // namespace zonestream::obs

namespace zonestream::sim {

// Configuration of the mixed simulation.
struct MixedSimulatorConfig {
  double round_length_s = 1.0;
  double discrete_arrival_rate_hz = 0.0;  // Poisson arrivals per second
  uint64_t seed = 42;

  // Optional observability hooks (not owned; null = disabled). Metrics
  // land under the "mixed." prefix; each round emits one trace event for
  // the continuous sweep, with the discrete-side tallies riding in the
  // leftover fields (see docs/OBSERVABILITY.md).
  obs::Registry* metrics = nullptr;
  obs::RoundTraceRecorder* trace = nullptr;
  int trace_source_id = 0;
};

// Aggregate results of a mixed simulation run.
struct MixedRunResult {
  int64_t rounds = 0;
  // Continuous side.
  int64_t continuous_requests = 0;
  int64_t continuous_glitches = 0;
  double continuous_glitch_rate = 0.0;
  // Discrete side.
  int64_t discrete_arrivals = 0;   // drawn during this call
  int64_t discrete_completed = 0;
  double mean_discrete_per_round = 0.0;
  double mean_response_time_s = 0.0;
  double p95_response_time_s = 0.0;
  int64_t max_queue_depth = 0;
  double mean_leftover_s = 0.0;  // leftover time per round after continuous
};

// Single-disk mixed-workload simulator. Not thread-safe.
class MixedRoundSimulator {
 public:
  static common::StatusOr<MixedRoundSimulator> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      int num_continuous,
      std::shared_ptr<const workload::SizeDistribution> continuous_sizes,
      std::shared_ptr<const workload::SizeDistribution> discrete_sizes,
      const MixedSimulatorConfig& config);

  // Simulates the next `rounds` rounds and returns their aggregates.
  // Successive calls continue one run: the round clock, the arm and the
  // discrete queue carry over.
  MixedRunResult Run(int rounds);

 private:
  MixedRoundSimulator(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      int num_continuous,
      std::shared_ptr<const workload::SizeDistribution> continuous_sizes,
      std::shared_ptr<const workload::SizeDistribution> discrete_sizes,
      const MixedSimulatorConfig& config);

  struct DiscreteRequest {
    double arrival_time_s = 0.0;
    double bytes = 0.0;
  };

  // "mixed.*" metric handles resolved once at construction (see
  // docs/OBSERVABILITY.md for the name schema).
  struct Metrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* continuous_requests = nullptr;
    obs::Counter* continuous_glitches = nullptr;
    obs::Counter* discrete_completed = nullptr;
    obs::Histogram* continuous_service_s = nullptr;
    obs::Histogram* leftover_s = nullptr;
    obs::Histogram* response_time_s = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  // Result of one continuous SCAN sweep. The phase sums and the zone
  // tallies (left in scratch_.zone_hits) are filled only when tracing.
  struct ContinuousSweep {
    double total_service_s = 0.0;
    int glitches = 0;
    double seek_sum = 0.0;
    double rotation_sum = 0.0;
    double transfer_sum = 0.0;
  };

  // Reused per-round buffers for the continuous sweep.
  struct RoundScratch {
    // Position uniforms: zone draws in [0, n), cylinder draws in [n, 2n).
    std::vector<double> u_pos;
    std::vector<int> cylinder;
    std::vector<int> zone;
    std::vector<double> rate_bps;
    std::vector<double> bytes;
    std::vector<double> rotation_s;
    sched::ScanKernel sweep;
    std::vector<int32_t> zone_hits;
  };

  // Draws the round's continuous requests the way RoundSimulator's batched
  // kernel does and serves them in one SCAN sweep of arm_; advances rng_
  // and leaves arm_ at the last on-time request.
  ContinuousSweep RunContinuousSweep();

  disk::DiskGeometry geometry_;
  disk::ZonePositionSampler positions_;  // over geometry_'s zone law
  disk::SeekTimeModel seek_;
  int num_continuous_;
  std::shared_ptr<const workload::SizeDistribution> continuous_sizes_;
  std::shared_ptr<const workload::SizeDistribution> discrete_sizes_;
  MixedSimulatorConfig config_;
  numeric::Rng rng_;
  sched::Arm arm_;
  std::deque<DiscreteRequest> queue_;
  double next_arrival_s_ = 0.0;
  int64_t rounds_run_ = 0;  // across Run() calls; indexes trace events
  std::optional<Metrics> metrics_;
  RoundScratch scratch_;
};

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_MIXED_SIMULATOR_H_
