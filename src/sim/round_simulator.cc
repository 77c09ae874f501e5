#include "sim/round_simulator.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "numeric/random.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"

namespace zonestream::sim {

namespace {

// Substream index for the disturbance-injection RNG. Keeping the injected
// delays on their own stream means enabling disturbances never perturbs
// the request positions/sizes/latencies drawn from the main stream.
constexpr uint64_t kDisturbanceSubstream = 0x64697374;  // "dist"

}  // namespace

RoundSimulator::RoundSimulator(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams,
    std::vector<std::unique_ptr<workload::FragmentSource>> sources,
    std::unique_ptr<fault::FaultInjector> fault_injector,
    const disk::PlacementModel& placement, const SimulatorConfig& config)
    : geometry_(geometry),
      positions_(geometry_, disk::AliasTable::Build(placement.zone_weights()),
                 placement.zone_rates()),
      seek_(seek),
      num_streams_(num_streams),
      sources_(std::move(sources)),
      config_(config),
      rng_(config.seed),
      disturbance_rng_(
          numeric::SubstreamSeed(config.seed, kDisturbanceSubstream)),
      fault_injector_(std::move(fault_injector)) {
  if (config_.metrics != nullptr) {
    obs::Registry* registry = config_.metrics;
    Metrics metrics;
    metrics.rounds = registry->GetCounter("sim.rounds");
    metrics.requests = registry->GetCounter("sim.requests");
    metrics.glitches = registry->GetCounter("sim.glitches");
    metrics.overruns = registry->GetCounter("sim.overruns");
    metrics.disturbances = registry->GetCounter("sim.disturbances");
    metrics.service_time_s =
        registry->GetHistogram("sim.round.service_time_s");
    metrics.seek_s = registry->GetHistogram("sim.round.seek_s");
    metrics.rotation_s = registry->GetHistogram("sim.round.rotation_s");
    metrics.transfer_s = registry->GetHistogram("sim.round.transfer_s");
    metrics.zone_hits.reserve(geometry_.num_zones());
    for (int z = 0; z < geometry_.num_zones(); ++z) {
      metrics.zone_hits.push_back(
          registry->GetCounter("sim.zone_hits." + std::to_string(z)));
    }
    metrics_ = std::move(metrics);
  }
  // Batched size draws need every stream on one shared i.i.d.
  // distribution; anything else (per-stream families, AR(1) state) falls
  // back to per-stream draws.
  shared_iid_ = sources_.front()->iid_distribution();
  for (const auto& source : sources_) {
    if (source->iid_distribution() != shared_iid_) {
      shared_iid_ = nullptr;
      break;
    }
  }
  const size_t n = static_cast<size_t>(num_streams_);
  scratch_.u_pos.resize(2 * n);
  scratch_.cylinder.resize(n);
  scratch_.zone.resize(n);
  scratch_.rate_bps.resize(n);
  scratch_.bytes.resize(n);
  scratch_.rotation_s.resize(n);
  scratch_.zone_hits.resize(geometry_.num_zones());
}

common::StatusOr<RoundSimulator> RoundSimulator::Create(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const FragmentSourceFactory& source_factory,
    const SimulatorConfig& config) {
  if (num_streams <= 0) {
    return common::Status::InvalidArgument("num_streams must be positive");
  }
  if (config.round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  // Delays ride in the rotation slot, which the SCAN kernel requires to be
  // non-negative.
  const DisturbanceConfig& disturbance = config.disturbance;
  if (disturbance.probability < 0.0 || disturbance.probability > 1.0 ||
      disturbance.delay_min_s < 0.0 ||
      disturbance.delay_min_s > disturbance.delay_max_s) {
    return common::Status::InvalidArgument("invalid disturbance config");
  }
  if (source_factory == nullptr) {
    return common::Status::InvalidArgument("source factory is null");
  }
  auto placement = disk::PlacementModel::Create(geometry, config.placement);
  if (!placement.ok()) return placement.status();
  std::vector<std::unique_ptr<workload::FragmentSource>> sources;
  sources.reserve(num_streams);
  for (int i = 0; i < num_streams; ++i) {
    auto source = source_factory(i);
    if (source == nullptr) {
      return common::Status::InvalidArgument("source factory returned null");
    }
    sources.push_back(std::move(source));
  }
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.faults.empty()) {
    auto created = fault::FaultInjector::Create(
        config.faults, geometry.num_zones(), config.seed, config.metrics,
        "sim.fault");
    if (!created.ok()) return created.status();
    injector = *std::move(created);
  }
  return RoundSimulator(geometry, seek, num_streams, std::move(sources),
                        std::move(injector), *placement, config);
}

FragmentSourceFactory RoundSimulator::IidFactory(
    std::shared_ptr<const workload::SizeDistribution> distribution) {
  ZS_CHECK(distribution != nullptr);
  return [distribution](int /*stream_id*/) {
    return std::make_unique<workload::IidSizeSource>(distribution);
  };
}

RoundOutcome RoundSimulator::RunRound() {
  // The fault models advance at the round boundary, before any request is
  // drawn; a failed disk still draws its round (see FinishDiskFailedRound).
  if (fault_injector_ != nullptr) fault_injector_->BeginRound(num_streams_);
  return ServeRound(DrawRound());
}

RoundLateness RoundSimulator::RunRoundLateness() {
  // The certificate skips the sweep, whose per-request timings the
  // observability hooks read. (Under SSTF and FCFS the certificate always
  // declines.)
  RoundOutcome outcome;
  if (config_.trace == nullptr && !metrics_.has_value()) {
    if (fault_injector_ != nullptr) fault_injector_->BeginRound(num_streams_);
    const DrawnRound drawn = DrawRound();
    if (!drawn.disk_failed &&
        arm_.ServeCertified(seek_, ScratchBatch(), config_.policy,
                            config_.round_length_s)) {
      ++rounds_run_;
      return RoundLateness{};
    }
    outcome = ServeRound(drawn);
  } else {
    outcome = RunRound();
  }
  return RoundLateness{outcome.overran, std::move(outcome.glitched_streams)};
}

sched::ScanBatch RoundSimulator::ScratchBatch() const {
  const RoundScratch& s = scratch_;
  return sched::ScanBatch{static_cast<size_t>(num_streams_),
                          s.cylinder.data(), s.rotation_s.data(),
                          s.bytes.data(), s.rate_bps.data()};
}

RoundSimulator::DrawnRound RoundSimulator::DrawRound() {
  const int n = num_streams_;
  RoundScratch& s = scratch_;
  DrawnRound drawn;
  drawn.disk_failed =
      fault_injector_ != nullptr && fault_injector_->disk_failed();

  // Positions: two uniforms per request — zone through the placement's
  // zone law, cylinder within the zone — drawn as two whole-round batches
  // (disk/zone_position_sampler.h).
  rng_.FillUniform01(s.u_pos.data(), 2 * static_cast<size_t>(n));
  positions_.Sample(s.u_pos.data(), s.u_pos.data() + n,
                    static_cast<size_t>(n), s.zone.data(), s.cylinder.data(),
                    s.rate_bps.data());

  // Sizes: one batched fill when every stream shares one i.i.d.
  // distribution (the Marsaglia–Tsang constants are then reused across
  // the whole round), else per-stream draws.
  if (shared_iid_ != nullptr) {
    shared_iid_->FillSamples(&rng_, s.bytes.data(), n);
  } else {
    for (int i = 0; i < n; ++i) {
      s.bytes[i] = sources_[i]->NextFragmentBytes(&rng_);
    }
  }

  // Rotational latencies in one batch.
  rng_.FillUniform(0.0, geometry_.rotation_time(), s.rotation_s.data(), n);

  // Failure injection from the dedicated substream, in issue order.
  const DisturbanceConfig& disturbance = config_.disturbance;
  if (disturbance.probability > 0.0) {
    for (int i = 0; i < n; ++i) {
      if (disturbance_rng_.Uniform01() < disturbance.probability) {
        const double delay = disturbance_rng_.Uniform(disturbance.delay_min_s,
                                                      disturbance.delay_max_s);
        s.rotation_s[i] += delay;
        ++drawn.disturbances;
        drawn.disturbance_delay_s += delay;
      }
    }
  }

  // Structured faults, consulted in issue order. A failed disk serves
  // nothing, so no per-request fault draws happen there.
  if (fault_injector_ != nullptr && !drawn.disk_failed) {
    for (int i = 0; i < n; ++i) {
      const fault::RequestFaultContext context{i, i, s.zone[i],
                                               s.cylinder[i]};
      const double delay = fault_injector_->DelayFor(context);
      if (delay > 0.0) {
        s.rotation_s[i] += delay;
        ++drawn.faulted_requests;
        drawn.fault_delay_s += delay;
      }
      s.rate_bps[i] *= fault_injector_->RateMultiplier(s.zone[i]);
    }
  }
  return drawn;
}

RoundOutcome RoundSimulator::ServeRound(const DrawnRound& drawn) {
  const int n = num_streams_;
  RoundScratch& s = scratch_;
  if (drawn.disk_failed) {
    std::fill(s.zone_hits.begin(), s.zone_hits.end(), 0);
    for (int i = 0; i < n; ++i) ++s.zone_hits[s.zone[i]];
    return FinishDiskFailedRound();
  }

  // Service order, arm policy and sweep through the shared arm and kernel
  // (sched/ordering.h). The requests after the on-time prefix missed the
  // deadline (stream id == SoA index).
  sched::ScanKernel& sweep = s.sweep;
  const sched::Arm::Round served = arm_.Serve(
      seek_, ScratchBatch(), config_.policy, config_.round_length_s, &sweep);
  const double return_seek_s = served.return_seek_s;
  const int* order = sweep.order();
  RoundOutcome outcome;
  outcome.glitched_streams.assign(order + served.on_time, order + n);
  outcome.total_service_time_s = return_seek_s + sweep.total_service_time_s();
  outcome.overran = outcome.total_service_time_s > config_.round_length_s;

  if (config_.trace != nullptr || metrics_.has_value()) {
    // Phase sums only feed the observability sink, so they accumulate
    // here, in service order, rather than inside the hot sweep.
    const double* seek_s = sweep.seek_s();
    const double* transfer_s = sweep.transfer_s();
    double seek_sum = return_seek_s;
    double rotation_sum = 0.0;
    double transfer_sum = 0.0;
    for (int pos = 0; pos < n; ++pos) {
      seek_sum += seek_s[pos];
      rotation_sum += s.rotation_s[order[pos]];
      transfer_sum += transfer_s[pos];
    }
    RoundBreakdown breakdown;
    breakdown.seek_s = seek_sum;
    breakdown.rotation_s =
        rotation_sum - drawn.disturbance_delay_s - drawn.fault_delay_s;
    breakdown.transfer_s = transfer_sum;
    breakdown.disturbance_delay_s = drawn.disturbance_delay_s;
    breakdown.disturbances = drawn.disturbances;
    breakdown.fault_delay_s = drawn.fault_delay_s;
    breakdown.faulted_requests = drawn.faulted_requests;
    std::fill(s.zone_hits.begin(), s.zone_hits.end(), 0);
    for (int i = 0; i < n; ++i) ++s.zone_hits[s.zone[i]];
    EmitRoundObservability(outcome, breakdown);
  }
  ++rounds_run_;
  return outcome;
}

void RoundSimulator::ResetForReplication(uint64_t seed,
                                         int trace_source_id) {
  ZS_CHECK(SupportsReplicationReset());
  config_.seed = seed;
  config_.trace_source_id = trace_source_id;
  rng_ = numeric::Rng(seed);
  disturbance_rng_ =
      numeric::Rng(numeric::SubstreamSeed(seed, kDisturbanceSubstream));
  arm_.Reset(0, true);
  rounds_run_ = 0;
}

RoundOutcome RoundSimulator::FinishDiskFailedRound() {
  // No request is served: every stream glitches, the disk is idle for the
  // whole round, and the arm stays where the last healthy round left it.
  RoundOutcome outcome;
  outcome.total_service_time_s = 0.0;
  outcome.overran = false;
  outcome.glitched_streams.resize(static_cast<size_t>(num_streams_));
  std::iota(outcome.glitched_streams.begin(), outcome.glitched_streams.end(),
            0);
  arm_.Skip();
  if (config_.trace != nullptr || metrics_.has_value()) {
    RoundBreakdown breakdown;
    breakdown.disk_failed = true;
    EmitRoundObservability(outcome, breakdown);
  }
  ++rounds_run_;
  return outcome;
}

void RoundSimulator::EmitRoundObservability(const RoundOutcome& outcome,
                                            const RoundBreakdown& breakdown) {
  const int glitches = static_cast<int>(outcome.glitched_streams.size());
  if (config_.trace != nullptr) {
    obs::RoundTraceEvent event;
    event.round = rounds_run_;
    event.source_id = config_.trace_source_id;
    event.num_requests = num_streams_;
    event.service_time_s = outcome.total_service_time_s;
    event.seek_s = breakdown.seek_s;
    event.rotation_s = breakdown.rotation_s;
    event.transfer_s = breakdown.transfer_s;
    event.disturbance_delay_s = breakdown.disturbance_delay_s;
    event.disturbances = breakdown.disturbances;
    event.fault_delay_s = breakdown.fault_delay_s;
    event.faulted_requests = breakdown.faulted_requests;
    event.glitches = glitches;
    event.overran = outcome.overran;
    event.disk_failed = breakdown.disk_failed;
    // A failed disk leaves every request unserved.
    event.truncated_requests = breakdown.disk_failed ? num_streams_ : 0;
    event.leftover_s =
        std::max(0.0, config_.round_length_s - outcome.total_service_time_s);
    event.zone_hits.assign(scratch_.zone_hits.begin(),
                           scratch_.zone_hits.end());
    config_.trace->Record(std::move(event));
  }
  if (metrics_.has_value()) {
    metrics_->rounds->Increment();
    metrics_->requests->Increment(num_streams_);
    metrics_->glitches->Increment(glitches);
    if (outcome.overran) metrics_->overruns->Increment();
    metrics_->disturbances->Increment(breakdown.disturbances);
    metrics_->service_time_s->Record(outcome.total_service_time_s);
    metrics_->seek_s->Record(breakdown.seek_s);
    metrics_->rotation_s->Record(breakdown.rotation_s);
    metrics_->transfer_s->Record(breakdown.transfer_s);
    for (int z = 0; z < geometry_.num_zones(); ++z) {
      if (scratch_.zone_hits[z] != 0) {
        metrics_->zone_hits[z]->Increment(scratch_.zone_hits[z]);
      }
    }
  }
}

RoundSimulatorState RoundSimulator::ExportState() const {
  RoundSimulatorState state;
  state.rng_state = rng_.SaveState();
  state.disturbance_rng_state = disturbance_rng_.SaveState();
  state.has_fault_injector = fault_injector_ != nullptr;
  if (fault_injector_ != nullptr) {
    state.fault_injector = fault_injector_->ExportState();
  }
  state.arm_cylinder = arm_.cylinder();
  state.ascending = arm_.ascending();
  state.rounds_run = rounds_run_;
  state.source_states.reserve(sources_.size());
  for (const auto& source : sources_) {
    std::vector<uint64_t> words;
    source->ExportState(&words);
    state.source_states.push_back(std::move(words));
  }
  return state;
}

common::Status RoundSimulator::ImportState(const RoundSimulatorState& state) {
  if (state.source_states.size() != sources_.size()) {
    return common::Status::InvalidArgument(
        "simulator state stream count does not match num_streams");
  }
  if (state.arm_cylinder < 0 || state.arm_cylinder >= geometry_.cylinders()) {
    return common::Status::InvalidArgument(
        "simulator state arm cylinder out of the disk's range");
  }
  if (state.rounds_run < 0) {
    return common::Status::InvalidArgument(
        "simulator state round counter must be non-negative");
  }
  if (state.has_fault_injector != (fault_injector_ != nullptr)) {
    return common::Status::InvalidArgument(
        "simulator state fault-injector presence does not match the config "
        "(was the snapshot taken with a different fault spec?)");
  }
  numeric::Rng rng(config_.seed);
  if (auto status = rng.LoadState(state.rng_state); !status.ok()) {
    return status;
  }
  numeric::Rng disturbance_rng(config_.seed);
  if (auto status = disturbance_rng.LoadState(state.disturbance_rng_state);
      !status.ok()) {
    return status;
  }
  if (fault_injector_ != nullptr) {
    if (auto status = fault_injector_->ImportState(state.fault_injector);
        !status.ok()) {
      return status;
    }
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (auto status = sources_[i]->ImportState(state.source_states[i]);
        !status.ok()) {
      return status;
    }
  }
  rng_ = rng;
  disturbance_rng_ = disturbance_rng;
  arm_.Reset(state.arm_cylinder, state.ascending);
  rounds_run_ = state.rounds_run;
  return common::Status::Ok();
}

ProbabilityEstimate RoundSimulator::EstimateLateProbability(int rounds) {
  ZS_CHECK_GT(rounds, 0);
  int64_t overruns = 0;
  for (int r = 0; r < rounds; ++r) {
    if (RunRoundLateness().overran) ++overruns;
  }
  const numeric::ProportionInterval interval =
      numeric::WilsonInterval(overruns, rounds);
  return ProbabilityEstimate{interval.point, interval.lower, interval.upper,
                             rounds};
}

ProbabilityEstimate RoundSimulator::EstimateGlitchProbability(int rounds) {
  ZS_CHECK_GT(rounds, 0);
  int64_t glitch_events = 0;
  numeric::RunningStats round_fractions;
  for (int r = 0; r < rounds; ++r) {
    const auto glitched =
        static_cast<int64_t>(RunRoundLateness().glitched_streams.size());
    glitch_events += glitched;
    round_fractions.Add(static_cast<double>(glitched) /
                        static_cast<double>(num_streams_));
  }
  const int64_t stream_rounds =
      static_cast<int64_t>(rounds) * num_streams_;
  const numeric::ProportionInterval interval =
      numeric::ClusteredProportionInterval(round_fractions.mean(),
                                           round_fractions.sample_variance(),
                                           rounds, num_streams_);
  const double point = static_cast<double>(glitch_events) /
                       static_cast<double>(stream_rounds);
  return ProbabilityEstimate{point, interval.lower, interval.upper,
                             stream_rounds};
}

ProbabilityEstimate RoundSimulator::EstimateErrorProbability(int m, int g,
                                                             int lifetimes) {
  ZS_CHECK_GT(m, 0);
  ZS_CHECK_GE(g, 0);
  ZS_CHECK_GT(lifetimes, 0);
  int64_t exceeding_streams = 0;
  std::vector<int64_t> exceeding_per_lifetime(lifetimes, 0);
  std::vector<int> glitch_counts(num_streams_);
  for (int lifetime = 0; lifetime < lifetimes; ++lifetime) {
    std::fill(glitch_counts.begin(), glitch_counts.end(), 0);
    for (int r = 0; r < m; ++r) {
      const RoundLateness lateness = RunRoundLateness();
      for (int stream : lateness.glitched_streams) ++glitch_counts[stream];
    }
    for (int count : glitch_counts) {
      if (count >= g) ++exceeding_per_lifetime[lifetime];
    }
    exceeding_streams += exceeding_per_lifetime[lifetime];
  }
  const int64_t samples = static_cast<int64_t>(lifetimes) * num_streams_;
  const numeric::ProportionInterval interval =
      numeric::ClusteredProportionInterval(exceeding_per_lifetime,
                                           num_streams_);
  const double point = static_cast<double>(exceeding_streams) /
                       static_cast<double>(samples);
  return ProbabilityEstimate{point, interval.lower, interval.upper, samples};
}

numeric::RunningStats RoundSimulator::SampleServiceTimes(int rounds) {
  ZS_CHECK_GT(rounds, 0);
  numeric::RunningStats stats;
  for (int r = 0; r < rounds; ++r) {
    stats.Add(RunRound().total_service_time_s);
  }
  return stats;
}

}  // namespace zonestream::sim
