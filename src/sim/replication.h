// Parallel Monte Carlo replication batches for the detailed simulators.
//
// The validation experiments (§4) average thousands of independent
// simulated rounds. This module shards that work into independent
// replications: replication r runs its own simulator instance seeded with
// numeric::SubstreamSeed(base_seed, r), and the per-replication tallies
// are reduced in replication order. Because every replication's sample
// path is a pure function of (base_seed, r) and the reduction order is
// fixed, the aggregate statistics are bit-identical at every thread count
// (see replication_test.cc), while the wall time scales with the pool.
//
// Determinism contract: a replication's draws (the round's batches from
// the main stream, the disturbance and fault substreams, positions under
// the zone law of SimulatorConfig::placement) depend only on the config
// and (base_seed, r), never on which thread runs it or when.
//
// Observability: any obs::Registry / obs::RoundTraceRecorder set on the
// simulator config is shared by all replications (both are thread-safe);
// each replication's trace events carry source_id = replication index.
#ifndef ZONESTREAM_SIM_REPLICATION_H_
#define ZONESTREAM_SIM_REPLICATION_H_

#include <cstdint>

#include "common/status.h"
#include "common/thread_pool.h"
#include "numeric/statistics.h"
#include "sim/round_simulator.h"

namespace zonestream::sim {

// Sharding of a replicated Monte Carlo run.
struct ReplicationOptions {
  int replications = 1;        // independent simulator instances
  uint64_t base_seed = 42;     // substream r is seeded from (base_seed, r)
  common::ThreadPool* pool = nullptr;  // null = the global pool
};

// Estimates p_late = P[T_N >= t] from `rounds_per_replication` rounds in
// each replication (total trials = replications * rounds_per_replication).
// `source_factory` is invoked concurrently from the pool's threads and
// must be thread-safe (RoundSimulator::IidFactory is).
common::StatusOr<ProbabilityEstimate> EstimateLateProbabilityReplicated(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& options);

// Estimates p_glitch = P[a given stream glitches in a round] over the same
// sharding; trials = replications * rounds * num_streams. Per-round glitch
// events are correlated, so the CI clusters by round (see
// RoundSimulator::EstimateGlitchProbability).
common::StatusOr<ProbabilityEstimate> EstimateGlitchProbabilityReplicated(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& options);

// Total-service-time moments pooled across replications (RunningStats
// merged in replication order).
common::StatusOr<numeric::RunningStats> SampleServiceTimesReplicated(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& options);

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_REPLICATION_H_
