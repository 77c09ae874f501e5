#include "sim/replication.h"

#include <optional>
#include <vector>

#include "common/check.h"
#include "numeric/random.h"

namespace zonestream::sim {

namespace {

common::Status ValidateSharding(const ReplicationOptions& options,
                                int rounds_per_replication) {
  if (options.replications <= 0) {
    return common::Status::InvalidArgument("replications must be positive");
  }
  if (rounds_per_replication <= 0) {
    return common::Status::InvalidArgument(
        "rounds_per_replication must be positive");
  }
  return common::Status::Ok();
}

// Runs replications [begin, end) — one contiguous ParallelForBlocks
// block — and hands each round's result, `(simulator.*kRound)()`, to
// `tally(replication, result)`: RunRoundLateness for the estimators
// that read only lateness, RunRound for those that read T_N. When the
// configuration supports it (shared i.i.d. sizes, no fault injector —
// the common Monte Carlo setup), one simulator instance
// serves the whole block and is rewound per replication, skipping a full
// construction (sources, scratch, metric resolution) per shard; rewound
// outcomes are bit-identical to a fresh instance's, so results do not
// depend on the block partition. Creation cannot fail here: the caller
// validated the arguments by constructing a probe simulator with
// identical inputs.
template <auto kRound, typename Tally>
void RunReplicationBlock(const disk::DiskGeometry& geometry,
                         const disk::SeekTimeModel& seek, int num_streams,
                         const FragmentSourceFactory& source_factory,
                         const SimulatorConfig& config, uint64_t base_seed,
                         int64_t begin, int64_t end, int rounds,
                         Tally&& tally) {
  std::optional<common::StatusOr<RoundSimulator>> holder;
  for (int64_t replication = begin; replication < end; ++replication) {
    const uint64_t seed =
        numeric::SubstreamSeed(base_seed, static_cast<uint64_t>(replication));
    // Any obs hooks in `config` are shared across replications (they are
    // thread-safe); the source id tells the trace events apart.
    const int source_id = static_cast<int>(replication);
    if (holder.has_value() && (*holder)->SupportsReplicationReset()) {
      (*holder)->ResetForReplication(seed, source_id);
    } else {
      SimulatorConfig replication_config = config;
      replication_config.seed = seed;
      replication_config.trace_source_id = source_id;
      holder.emplace(RoundSimulator::Create(geometry, seek, num_streams,
                                            source_factory,
                                            replication_config));
      ZS_CHECK(holder->ok());
    }
    RoundSimulator& simulator = **holder;
    for (int r = 0; r < rounds; ++r) {
      tally(replication, (simulator.*kRound)());
    }
  }
}

}  // namespace

common::StatusOr<ProbabilityEstimate> EstimateLateProbabilityReplicated(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& options) {
  if (auto status = ValidateSharding(options, rounds_per_replication);
      !status.ok()) {
    return status;
  }
  auto probe = RoundSimulator::Create(geometry, seek, num_streams,
                                      source_factory, config);
  if (!probe.ok()) return probe.status();

  std::vector<int64_t> overruns(options.replications, 0);
  common::ParallelForBlocks(
      options.replications,
      [&](int64_t begin, int64_t end) {
        RunReplicationBlock<&RoundSimulator::RunRoundLateness>(
            geometry, seek, num_streams, source_factory, config,
            options.base_seed, begin, end, rounds_per_replication,
            [&overruns](int64_t replication, const RoundLateness& round) {
              if (round.overran) ++overruns[replication];
            });
      },
      options.pool);

  int64_t total_overruns = 0;
  for (int64_t count : overruns) total_overruns += count;
  const int64_t trials =
      static_cast<int64_t>(options.replications) * rounds_per_replication;
  const numeric::ProportionInterval interval =
      numeric::WilsonInterval(total_overruns, trials);
  return ProbabilityEstimate{interval.point, interval.lower, interval.upper,
                             trials};
}

common::StatusOr<ProbabilityEstimate> EstimateGlitchProbabilityReplicated(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& options) {
  if (auto status = ValidateSharding(options, rounds_per_replication);
      !status.ok()) {
    return status;
  }
  auto probe = RoundSimulator::Create(geometry, seek, num_streams,
                                      source_factory, config);
  if (!probe.ok()) return probe.status();

  // Per-replication tallies: the glitch-event count (for the exact point
  // estimate) and the running statistics of the per-round glitch fraction
  // (the i.i.d. sample the cluster-robust interval is built from; see
  // RoundSimulator::EstimateGlitchProbability).
  std::vector<int64_t> glitch_events(options.replications, 0);
  std::vector<numeric::RunningStats> round_fractions(options.replications);
  common::ParallelForBlocks(
      options.replications,
      [&](int64_t begin, int64_t end) {
        RunReplicationBlock<&RoundSimulator::RunRoundLateness>(
            geometry, seek, num_streams, source_factory, config,
            options.base_seed, begin, end, rounds_per_replication,
            [&](int64_t replication, const RoundLateness& round) {
              const int64_t glitched =
                  static_cast<int64_t>(round.glitched_streams.size());
              glitch_events[replication] += glitched;
              round_fractions[replication].Add(
                  static_cast<double>(glitched) /
                  static_cast<double>(num_streams));
            });
      },
      options.pool);

  int64_t total_events = 0;
  numeric::RunningStats merged;  // fixed replication order: deterministic
  for (int64_t replication = 0; replication < options.replications;
       ++replication) {
    total_events += glitch_events[replication];
    merged.Merge(round_fractions[replication]);
  }
  const int64_t rounds =
      static_cast<int64_t>(options.replications) * rounds_per_replication;
  const int64_t trials = rounds * num_streams;
  numeric::ProportionInterval interval = numeric::ClusteredProportionInterval(
      merged.mean(), merged.count() > 1 ? merged.sample_variance() : 0.0,
      rounds, num_streams);
  // Restate the exact pooled point estimate; the clustering only widens
  // the interval.
  interval.point =
      static_cast<double>(total_events) / static_cast<double>(trials);
  return ProbabilityEstimate{interval.point, interval.lower, interval.upper,
                             trials};
}

common::StatusOr<numeric::RunningStats> SampleServiceTimesReplicated(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& options) {
  if (auto status = ValidateSharding(options, rounds_per_replication);
      !status.ok()) {
    return status;
  }
  auto probe = RoundSimulator::Create(geometry, seek, num_streams,
                                      source_factory, config);
  if (!probe.ok()) return probe.status();

  std::vector<numeric::RunningStats> per_replication(options.replications);
  common::ParallelForBlocks(
      options.replications,
      [&](int64_t begin, int64_t end) {
        RunReplicationBlock<&RoundSimulator::RunRound>(
            geometry, seek, num_streams, source_factory, config,
            options.base_seed, begin, end, rounds_per_replication,
            [&per_replication](int64_t replication,
                               const RoundOutcome& outcome) {
              per_replication[replication].Add(outcome.total_service_time_s);
            });
      },
      options.pool);

  numeric::RunningStats merged;
  for (const numeric::RunningStats& stats : per_replication) {
    merged.Merge(stats);
  }
  return merged;
}

}  // namespace zonestream::sim
