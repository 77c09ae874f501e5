#include "server/media_server.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/service_time_model.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "sched/ordering.h"
#include "sched/scan_kernel.h"

namespace zonestream::server {

namespace {

// Substream-family tag for the per-disk fault injectors ("fsrv"): disk d's
// injector is seeded with SubstreamSeed(SubstreamSeed(seed, tag), d), so
// server faults never touch the request-drawing stream and each disk's
// fault process is independent.
constexpr uint64_t kServerFaultSubstream = 0x66737276;

// Repair stripe-rebuild job j rides in the round's requests with owner
// kRepairStreamIdBase - j; negative owners are decoded back to the job
// on completion. Stream ids are always >= 0.
constexpr int kRepairStreamIdBase = -1;

}  // namespace

common::StatusOr<MediaServerConfig> MediaServer::PlanConfig(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    double fragment_mean_bytes, double fragment_variance_bytes2,
    int num_disks, double round_length_s, double late_tolerance,
    uint64_t seed) {
  if (num_disks <= 0) {
    return common::Status::InvalidArgument("num_disks must be positive");
  }
  if (round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  if (late_tolerance <= 0.0 || late_tolerance >= 1.0) {
    return common::Status::InvalidArgument(
        "late tolerance must be in (0, 1)");
  }
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      geometry, seek, fragment_mean_bytes, fragment_variance_bytes2);
  if (!model.ok()) return model.status();
  const int limit =
      core::MaxStreamsByLateProbability(*model, round_length_s,
                                        late_tolerance);
  if (limit <= 0) {
    return common::Status::InvalidArgument(
        "QoS contract admits no streams on this disk configuration");
  }
  MediaServerConfig config;
  config.num_disks = num_disks;
  config.round_length_s = round_length_s;
  config.per_disk_stream_limit = limit;
  config.seed = seed;
  return config;
}

common::StatusOr<int> MediaServer::PlanDegradedLimit(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    double fragment_mean_bytes, double fragment_variance_bytes2,
    double round_length_s, double late_tolerance,
    const RepairPolicy& repair) {
  if (round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  if (late_tolerance <= 0.0 || late_tolerance >= 1.0) {
    return common::Status::InvalidArgument(
        "late tolerance must be in (0, 1)");
  }
  if (auto status = ValidateRepairPolicy(repair); !status.ok()) {
    return status;
  }
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      geometry, seek, fragment_mean_bytes, fragment_variance_bytes2);
  if (!model.ok()) return model.status();
  return core::MaxStreamsByLateProbabilityDegraded(
      *model, round_length_s, late_tolerance, repair.throttle_per_round);
}

MediaServer::MediaServer(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    const MediaServerConfig& config,
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors,
    std::vector<std::shared_ptr<const workload::SizeDistribution>>
        class_sizes)
    : geometry_(geometry),
      positions_(geometry_),
      seek_(seek),
      config_(config),
      striping_(config.num_disks),
      rng_(config.seed),
      phase_counts_(config.parity ? config.num_disks - 1 : config.num_disks,
                    0),
      class_sizes_(std::move(class_sizes)),
      arms_(config.num_disks),
      fault_injectors_(std::move(injectors)),
      spare_active_(config.num_disks, 0),
      busy_fraction_(config.num_disks),
      round_failed_(config.num_disks, 0) {
  if (config_.parity) parity_striping_.emplace(config_.num_disks);
  if (config_.class_model != nullptr) {
    phase_mixes_.assign(phase_counts_.size(),
                        core::ClassCounts(class_sizes_.size(), 0));
  }
  if (config_.metrics != nullptr) {
    obs::Registry* registry = config_.metrics;
    metrics_.rounds = registry->GetCounter("server.rounds");
    metrics_.requests = registry->GetCounter("server.requests");
    metrics_.glitches = registry->GetCounter("server.glitches");
    metrics_.overruns = registry->GetCounter("server.overruns");
    metrics_.service_time_s =
        registry->GetHistogram("server.disk.service_time_s");
    metrics_.utilization = registry->GetHistogram("server.disk.utilization");
  }
  scratch_.by_disk.resize(static_cast<size_t>(config_.num_disks));
  if (config_.repair.has_value()) {
    repair_ =
        std::make_unique<RepairController>(*config_.repair, config_.metrics);
  }
  if (config_.degradation.has_value()) {
    degradation_ = std::make_unique<fault::DegradationController>(
        *config_.degradation, config_.metrics, "server.degradation");
  }
}

common::StatusOr<MediaServer> MediaServer::Create(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    const MediaServerConfig& config) {
  if (config.num_disks <= 0) {
    return common::Status::InvalidArgument("num_disks must be positive");
  }
  if (config.round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  if (config.per_disk_stream_limit <= 0) {
    return common::Status::InvalidArgument(
        "per_disk_stream_limit must be positive (derive it from the "
        "admission model)");
  }
  if (config.fault_disk != -1 &&
      (config.fault_disk < 0 || config.fault_disk >= config.num_disks)) {
    return common::Status::InvalidArgument(
        "fault_disk must be -1 (all disks) or a valid disk index");
  }
  if (config.max_fragment_retries < 0) {
    return common::Status::InvalidArgument(
        "max_fragment_retries must be non-negative");
  }
  if (config.parity && config.num_disks < 2) {
    return common::Status::InvalidArgument(
        "parity striping needs at least 2 disks");
  }
  if (config.degraded_per_disk_stream_limit < 0) {
    return common::Status::InvalidArgument(
        "degraded_per_disk_stream_limit must be non-negative");
  }
  if (config.degraded_per_disk_stream_limit > 0 && !config.parity) {
    return common::Status::InvalidArgument(
        "degraded_per_disk_stream_limit requires parity striping");
  }
  if (config.repair.has_value()) {
    if (!config.parity) {
      return common::Status::InvalidArgument(
          "repair requires parity striping (there is nothing to rebuild "
          "from without parity)");
    }
    if (auto status = ValidateRepairPolicy(*config.repair); !status.ok()) {
      return status;
    }
  }
  std::vector<std::shared_ptr<const workload::SizeDistribution>> class_sizes;
  if (config.class_model != nullptr) {
    if (config.class_late_tolerance <= 0.0 ||
        config.class_late_tolerance >= 1.0) {
      return common::Status::InvalidArgument(
          "class late tolerance must be in (0, 1)");
    }
    for (int c = 0; c < config.class_model->num_classes(); ++c) {
      const core::StreamClass& spec = config.class_model->stream_class(c);
      auto sizes = workload::GammaSizeDistribution::Create(
          spec.mean_size_bytes, spec.variance_size_bytes2);
      if (!sizes.ok()) return sizes.status();
      class_sizes.push_back(std::make_shared<workload::GammaSizeDistribution>(
          *std::move(sizes)));
    }
  }
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  if (!config.faults.empty()) {
    injectors.resize(static_cast<size_t>(config.num_disks));
    const uint64_t family =
        numeric::SubstreamSeed(config.seed, kServerFaultSubstream);
    for (int d = 0; d < config.num_disks; ++d) {
      if (config.fault_disk != -1 && config.fault_disk != d) continue;
      auto injector = fault::FaultInjector::Create(
          config.faults, geometry.num_zones(),
          numeric::SubstreamSeed(family, static_cast<uint64_t>(d)),
          config.metrics, "server.fault.disk" + std::to_string(d));
      if (!injector.ok()) return injector.status();
      injectors[static_cast<size_t>(d)] = *std::move(injector);
    }
  }
  return MediaServer(geometry, seek, config, std::move(injectors),
                     std::move(class_sizes));
}

common::StatusOr<int> MediaServer::OpenStream(
    std::shared_ptr<const workload::SizeDistribution> sizes) {
  return OpenStream(std::move(sizes), 0);
}

common::StatusOr<int> MediaServer::OpenStream(
    std::shared_ptr<const workload::SizeDistribution> sizes,
    int priority_class) {
  if (sizes == nullptr) {
    return common::Status::InvalidArgument("size distribution is null");
  }
  if (priority_class < 0) {
    return common::Status::InvalidArgument(
        "priority_class must be non-negative");
  }
  if (config_.class_model != nullptr) {
    return common::Status::InvalidArgument(
        "a server with a class model opens streams by class");
  }
  return Admit(std::move(sizes), priority_class, /*stream_class=*/-1);
}

common::StatusOr<int> MediaServer::OpenStream(int stream_class) {
  if (config_.class_model == nullptr) {
    return common::Status::InvalidArgument(
        "opening a stream by class needs a class model");
  }
  if (stream_class < 0 ||
      stream_class >= static_cast<int>(class_sizes_.size())) {
    return common::Status::InvalidArgument("unknown stream class");
  }
  return Admit(class_sizes_[static_cast<size_t>(stream_class)],
               /*priority_class=*/0, stream_class);
}

common::StatusOr<int> MediaServer::Admit(
    std::shared_ptr<const workload::SizeDistribution> sizes,
    int priority_class, int stream_class) {
  if (!admissions_open_) {
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.admission.rejected_degraded")
          ->Increment();
    }
    return common::Status::ResourceExhausted(
        "admission control: server is degraded, admissions closed");
  }
  // Least-loaded phase; rejecting when it is full enforces the per-disk
  // limit exactly (every disk serves one phase's streams per round).
  // While a parity array is degraded, the degraded-mode limit applies,
  // so new admissions never push a survivor past the rebuilding bound.
  int phase = 0;
  if (stream_class >= 0) {
    phase = ClassPhaseFor(stream_class);
  } else {
    for (int p = 1; p < NumPhases(); ++p) {
      if (phase_counts_[p] < phase_counts_[phase]) phase = p;
    }
    if (phase_counts_[phase] >= EffectivePhaseLimit()) phase = -1;
  }
  if (phase < 0) {
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.admission.rejected")->Increment();
    }
    return common::Status::ResourceExhausted(
        stream_class >= 0
            ? "admission control: no phase can absorb another stream of "
              "this class within the QoS tolerance"
            : "admission control: server is at its stream limit");
  }
  StreamState state;
  state.phase = phase;
  state.priority_class = priority_class;
  state.stream_class = stream_class;
  state.sizes = std::move(sizes);
  const int id = static_cast<int>(next_stream_id_++);
  streams_.emplace(id, std::move(state));
  ++phase_counts_[phase];
  if (stream_class >= 0) {
    ++phase_mixes_[static_cast<size_t>(phase)]
                  [static_cast<size_t>(stream_class)];
  }
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("server.admission.accepted")->Increment();
    config_.metrics->GetGauge("server.active_streams")
        ->Set(static_cast<double>(streams_.size()));
  }
  return id;
}

int MediaServer::ClassPhaseFor(int stream_class) const {
  // Phases from least to most loaded, ties to the lowest index; the
  // stream goes to the first one under the count limit whose mix plus
  // this stream stays within the tolerance.
  std::vector<int> order(phase_counts_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return phase_counts_[static_cast<size_t>(a)] <
           phase_counts_[static_cast<size_t>(b)];
  });
  const int limit = EffectivePhaseLimit();
  const auto admits = [&](int phase) {
    if (phase_counts_[static_cast<size_t>(phase)] >= limit) return false;
    core::ClassCounts candidate = phase_mixes_[static_cast<size_t>(phase)];
    ++candidate[static_cast<size_t>(stream_class)];
    return config_.class_model->Admissible(candidate, config_.round_length_s,
                                           config_.class_late_tolerance);
  };
  // Each phase's check is an independent evaluation of the multi-class
  // transform (the expensive part of an open), so with real workers
  // available all phases are probed in parallel and the admitted phase is
  // the first admissible one in load order — the same phase the serial
  // early-exit loop picks. With a single thread the serial loop is kept
  // so the early exit still saves the remaining probes.
  common::ThreadPool& pool = common::ThreadPool::Global();
  if (pool.num_threads() > 1 && order.size() > 1) {
    std::vector<char> admissible(order.size(), 0);
    common::ParallelFor(
        static_cast<int64_t>(order.size()),
        [&](int64_t k) {
          admissible[static_cast<size_t>(k)] =
              admits(order[static_cast<size_t>(k)]) ? 1 : 0;
        },
        &pool);
    for (size_t k = 0; k < order.size(); ++k) {
      if (admissible[k] != 0) return order[k];
    }
    return -1;
  }
  for (const int phase : order) {
    if (admits(phase)) return phase;
  }
  return -1;
}

common::Status MediaServer::CloseStream(int stream_id) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return common::Status::NotFound("no such stream");
  }
  --phase_counts_[it->second.phase];
  if (it->second.stream_class >= 0) {
    --phase_mixes_[static_cast<size_t>(it->second.phase)]
                  [static_cast<size_t>(it->second.stream_class)];
  }
  streams_.erase(it);
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("server.streams.closed")->Increment();
    config_.metrics->GetGauge("server.active_streams")
        ->Set(static_cast<double>(streams_.size()));
  }
  return common::Status::Ok();
}

void MediaServer::RecordGlitch(int stream_id, double fragment_bytes) {
  auto it = streams_.find(stream_id);
  ZS_CHECK(it != streams_.end());
  StreamState& stream = it->second;
  stream.stats.glitches++;
  total_glitches_++;
  if (config_.max_fragment_retries <= 0) return;
  if (stream.retry_attempts < config_.max_fragment_retries) {
    // Re-issue the cut fragment next round instead of a fresh one.
    stream.retry_bytes = fragment_bytes;
    stream.retry_attempts++;
    stream.stats.retries++;
    fragments_retried_++;
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.fragments.retried")->Increment();
    }
  } else {
    // Retry budget exhausted: drop the fragment and move on.
    stream.retry_bytes = -1.0;
    stream.retry_attempts = 0;
    stream.stats.drops++;
    fragments_dropped_++;
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.fragments.dropped")->Increment();
    }
  }
}

void MediaServer::RunRound() {
  const int active_at_start = static_cast<int>(streams_.size());

  // Failure census. Every injector opens its round here — BeginRound
  // draws only from the injector's own per-disk substreams, so hoisting
  // it ahead of the request draws leaves them untouched — and declares
  // the stream load the disk is scheduled to carry (degraded fan-out and
  // repair reads appended below are served, and eligible for per-request
  // fault delays, but are not part of the declared load). A disk whose
  // spare took over reports healthy regardless of its dead predecessor's
  // injector.
  std::fill(round_failed_.begin(), round_failed_.end(), 0);
  int failed_count = 0;
  int failed_disk = -1;
  for (int d = 0; d < config_.num_disks; ++d) {
    fault::FaultInjector* injector = InjectorFor(d);
    if (injector == nullptr) continue;
    injector->BeginRound(PlannedPrimaryLoad(d));
    if (injector->disk_failed() && spare_active_[static_cast<size_t>(d)] == 0) {
      round_failed_[static_cast<size_t>(d)] = 1;
      if (failed_count == 0) failed_disk = d;
      ++failed_count;
    }
  }

  // Parity-mode failure transitions, before requests are issued so this
  // round already runs with the degraded stream set and an armed rebuild.
  if (config_.parity) {
    degraded_now_ = failed_count > 0;
    if (degraded_now_ && !degraded_prev_) ShedToDegradedLimit();
    if (repair_ != nullptr) {
      if (failed_count == 0 && repair_->active()) {
        // The target healed on its own (transient fault): data intact.
        repair_->Cancel();
      } else if (failed_count == 1 &&
                 (!repair_->active() ||
                  repair_->target_disk() != failed_disk)) {
        repair_->StartRebuild(failed_disk);
      }
      // Two or more disks down: an armed rebuild stays active but claims
      // no budget (reconstruction needs all D-1 peers of the target).
    }
    degraded_prev_ = degraded_now_;
    NotifyLimitChangeIfNeeded();
  }

  // Issue the round's requests: one walk over the streams (home disk,
  // degraded fan-out), then the repair reads. Each request names its
  // owner and the fragment slot its bytes come from; nothing is drawn
  // yet.
  RoundScratch& s = scratch_;
  s.owner.clear();
  s.slot.clear();
  for (std::vector<int>& requests : s.by_disk) requests.clear();
  s.recon.clear();
  s.size_runs.clear();
  const size_t num_slots = streams_.size() + 1;
  s.fragment_bytes.resize(num_slots);
  s.reconstructed.assign(num_slots, 0);
  s.late.assign(num_slots, 0);
  const auto emit = [&s](int disk, int owner, int slot) {
    s.by_disk[static_cast<size_t>(disk)].push_back(
        static_cast<int>(s.owner.size()));
    s.owner.push_back(owner);
    s.slot.push_back(slot);
  };
  // Home disk of each phase this round (the stripe row is the round).
  s.phase_disk.resize(static_cast<size_t>(NumPhases()));
  for (int p = 0; p < NumPhases(); ++p) {
    s.phase_disk[static_cast<size_t>(p)] =
        config_.parity ? parity_striping_->DataDiskForFragment(p, round_)
                       : striping_.DiskForFragment(p, round_);
  }
  int next_slot = 0;
  for (auto& [id, stream] : streams_) {
    const int slot = next_slot++;
    if (stream.retry_bytes >= 0.0) {
      // A deadline-cut fragment awaiting re-issue: same size, fresh
      // position, and no size draw.
      s.fragment_bytes[static_cast<size_t>(slot)] = stream.retry_bytes;
      stream.retry_bytes = -1.0;
    } else {
      // A fresh fragment, drawn below in one batch with its neighbours on
      // the same distribution. It closes out any retried predecessor that
      // made its deadline: the retry budget is per fragment, not per
      // stream.
      const workload::SizeDistribution* sizes = stream.sizes.get();
      if (!s.size_runs.empty() && s.size_runs.back().sizes == sizes &&
          s.size_runs.back().end == slot) {
        ++s.size_runs.back().end;
      } else {
        s.size_runs.push_back(SizeRun{slot, slot + 1, sizes});
      }
      stream.next_fragment++;
      stream.retry_attempts = 0;
    }
    stream.stats.rounds_served++;
    const int home_disk = s.phase_disk[static_cast<size_t>(stream.phase)];
    if (!config_.parity || round_failed_[static_cast<size_t>(home_disk)] == 0 ||
        failed_count > 1) {
      // The home disk serves the fragment: it is intact, or there is no
      // parity to rebuild from, or two or more disks are down and the
      // fragment glitches through the standard disk-failed path.
      emit(home_disk, id, slot);
      continue;
    }
    // Degraded read: reconstruct the lost unit from the stripe row's D-1
    // survivors. The fragment's fate is resolved after all sweeps (on
    // time only if every reconstruction read is).
    for (int d = 0; d < config_.num_disks; ++d) {
      if (d != home_disk) emit(d, id, slot);
    }
    s.reconstructed[static_cast<size_t>(slot)] = 1;
    s.recon.emplace_back(id, slot);
  }
  if (!s.recon.empty() && config_.metrics != nullptr) {
    config_.metrics->GetCounter("server.repair.reconstruction_reads")
        ->Increment(static_cast<int64_t>(s.recon.size()) *
                    (config_.num_disks - 1));
  }

  // Repair-as-a-workload: claim this round's throttled stripe-rebuild
  // budget and schedule its reconstruction reads through the same SCAN
  // sweeps as stream I/O. Only a single-failure round with the rebuild
  // target down can make progress.
  int repair_jobs = 0;
  if (config_.parity && repair_ != nullptr && repair_->active() &&
      failed_count == 1 && failed_disk == repair_->target_disk()) {
    repair_jobs = repair_->ClaimRoundBudget();
    repair_job_late_.assign(static_cast<size_t>(repair_jobs), 0);
    const int repair_slot = next_slot;
    s.fragment_bytes[static_cast<size_t>(repair_slot)] =
        repair_->policy().read_bytes;
    for (int j = 0; j < repair_jobs; ++j) {
      for (int d = 0; d < config_.num_disks; ++d) {
        if (d != failed_disk) emit(d, kRepairStreamIdBase - j, repair_slot);
      }
    }
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.repair.reads")
          ->Increment(static_cast<int64_t>(repair_jobs) *
                      (config_.num_disks - 1));
    }
  }

  // The round's variates, in RoundSimulator::DrawRound's order so a
  // one-disk server draws exactly what the simulator does: 2R position
  // uniforms, the fresh fragment sizes (one batch per run), R rotational
  // latencies.
  const size_t num_requests = s.owner.size();
  s.u_pos.resize(2 * num_requests);
  rng_.FillUniform01(s.u_pos.data(), 2 * num_requests);
  for (const SizeRun& run : s.size_runs) {
    run.sizes->FillSamples(&rng_, s.fragment_bytes.data() + run.begin,
                           static_cast<size_t>(run.end - run.begin));
  }
  s.rotation.resize(num_requests);
  rng_.FillUniform(0.0, geometry_.rotation_time(), s.rotation.data(),
                   num_requests);
  s.issue_zone.resize(num_requests);
  s.issue_cylinder.resize(num_requests);
  s.issue_rate_bps.resize(num_requests);
  positions_.Sample(s.u_pos.data(), s.u_pos.data() + num_requests,
                    num_requests, s.issue_zone.data(),
                    s.issue_cylinder.data(), s.issue_rate_bps.data());

  // Serve every disk's batch with its own SCAN sweep.
  const double round_length_s = config_.round_length_s;
  int round_glitches = 0;  // stream *fragments* judged late this round
  bool round_overran = false;
  int repair_reads_late = 0;
  for (int d = 0; d < config_.num_disks; ++d) {
    // Gather the disk's batch in issue order: position, bytes and
    // rotation per request.
    const std::vector<int>& requests = s.by_disk[static_cast<size_t>(d)];
    const size_t n = requests.size();
    s.cylinder.resize(n);
    s.zone.resize(n);
    s.bytes.resize(n);
    s.rate_bps.resize(n);
    s.rotation_s.resize(n);
    for (size_t j = 0; j < n; ++j) {
      const size_t k = static_cast<size_t>(requests[j]);
      s.zone[j] = s.issue_zone[k];
      s.cylinder[j] = s.issue_cylinder[k];
      s.rate_bps[j] = s.issue_rate_bps[k];
      s.bytes[j] = s.fragment_bytes[static_cast<size_t>(s.slot[k])];
      s.rotation_s[j] = s.rotation[k];
    }

    fault::FaultInjector* injector = InjectorFor(d);
    double fault_delay_s = 0.0;
    int faulted_requests = 0;
    const bool disk_failed = round_failed_[static_cast<size_t>(d)] != 0;
    if (injector != nullptr && spare_active_[static_cast<size_t>(d)] == 0 &&
        !disk_failed) {
      // Fault delays ride in the rotational-latency slot, consulted in
      // issue order (before the SCAN sort) as the simulators do.
      for (size_t j = 0; j < n; ++j) {
        const fault::RequestFaultContext context{
            static_cast<int>(j), s.owner[static_cast<size_t>(requests[j])],
            s.zone[j], s.cylinder[j]};
        const double delay = injector->DelayFor(context);
        if (delay > 0.0) {
          s.rotation_s[j] += delay;
          ++faulted_requests;
          fault_delay_s += delay;
        }
        s.rate_bps[j] *= injector->RateMultiplier(s.zone[j]);
      }
    }

    if (disk_failed) {
      // Nothing is served: every stream scheduled on this disk glitches
      // and the retry policy decides each fragment's fate. The arm stays
      // put and the disk idles for the round.
      for (size_t j = 0; j < n; ++j) {
        ++round_glitches;
        RecordGlitch(s.owner[static_cast<size_t>(requests[j])], s.bytes[j]);
      }
      busy_fraction_[d].Add(0.0);
      arms_[d].Skip();
      if (config_.metrics != nullptr) {
        metrics_.requests->Increment(static_cast<int64_t>(n));
        metrics_.glitches->Increment(static_cast<int64_t>(n));
        metrics_.service_time_s->Record(0.0);
        metrics_.utilization->Record(0.0);
      }
      if (config_.trace != nullptr) {
        obs::RoundTraceEvent event;
        event.round = round_;
        event.source_id = d;
        event.num_requests = static_cast<int>(n);
        event.glitches = static_cast<int>(n);
        event.disk_failed = true;
        event.truncated_requests = static_cast<int>(n);
        event.leftover_s = round_length_s;
        event.zone_hits.assign(geometry_.num_zones(), 0);
        for (size_t j = 0; j < n; ++j) ++event.zone_hits[s.zone[j]];
        config_.trace->Record(std::move(event));
      }
      continue;
    }

    sched::ScanKernel& sweep = s.sweep;
    const sched::ScanBatch batch{n, s.cylinder.data(), s.rotation_s.data(),
                                 s.bytes.data(), s.rate_bps.data()};
    const sched::Arm::Round served = arms_[d].Serve(
        seek_, batch, sched::ServicePolicy::kScan, round_length_s, &sweep);
    const double total_s = sweep.total_service_time_s();
    const double utilization = std::fmin(total_s, round_length_s) /
                               round_length_s;
    busy_fraction_[d].Add(utilization);

    // The ledger, in service order. Completions never decrease, so the
    // late requests are exactly those after the on-time prefix.
    const int* order = sweep.order();
    const double* seek_s = sweep.seek_s();
    const double* transfer_s = sweep.transfer_s();
    int disk_glitches = 0;       // late stream requests (trace/metrics)
    int disk_repair_reads = 0;
    double repair_busy_s = 0.0;  // repair share of this disk's sweep
    for (size_t pos = 0; pos < n; ++pos) {
      const size_t j = static_cast<size_t>(order[pos]);
      const size_t k = static_cast<size_t>(requests[j]);
      const int owner = s.owner[k];
      const bool late = pos >= served.on_time;
      if (owner < 0) {
        // Repair read for stripe-rebuild job (kRepairStreamIdBase - owner).
        const int job = kRepairStreamIdBase - owner;
        ++disk_repair_reads;
        repair_busy_s += seek_s[pos] + s.rotation_s[j] + transfer_s[pos];
        if (late) {
          repair_job_late_[static_cast<size_t>(job)] = 1;
          ++repair_reads_late;
        }
        continue;
      }
      const size_t slot = static_cast<size_t>(s.slot[k]);
      if (late) {
        ++disk_glitches;
        if (s.reconstructed[slot] != 0) {
          // One late reconstruction read spoils the whole fragment; the
          // ledger entry is charged once, after all sweeps.
          s.late[slot] = 1;
        } else {
          ++round_glitches;
          RecordGlitch(owner, s.bytes[j]);
        }
      } else if (s.reconstructed[slot] == 0) {
        fragments_served_++;
      }
    }
    const bool overran = total_s > round_length_s;
    if (overran) round_overran = true;
    if (disk_repair_reads > 0 && config_.metrics != nullptr) {
      config_.metrics->GetHistogram("server.repair.disk_time_s")
          ->Record(repair_busy_s);
    }

    // Observability: per-(round, disk) metrics and one trace event with
    // source_id = disk index. Injected fault delays ride in the rotation
    // slot, so they are subtracted back out of the rotation component.
    if (config_.metrics != nullptr) {
      metrics_.requests->Increment(static_cast<int64_t>(n));
      metrics_.glitches->Increment(disk_glitches);
      if (overran) metrics_.overruns->Increment();
      metrics_.service_time_s->Record(total_s);
      metrics_.utilization->Record(utilization);
    }
    if (config_.trace != nullptr) {
      double seek_sum = 0.0;
      double rotation_sum = 0.0;
      double transfer_sum = 0.0;
      for (size_t pos = 0; pos < n; ++pos) {
        seek_sum += seek_s[pos];
        rotation_sum += s.rotation_s[static_cast<size_t>(order[pos])];
        transfer_sum += transfer_s[pos];
      }
      obs::RoundTraceEvent event;
      event.round = round_;
      event.source_id = d;
      event.num_requests = static_cast<int>(n);
      event.service_time_s = total_s;
      event.seek_s = seek_sum;
      event.rotation_s = rotation_sum - fault_delay_s;
      event.transfer_s = transfer_sum;
      event.fault_delay_s = fault_delay_s;
      event.faulted_requests = faulted_requests;
      event.glitches = disk_glitches;
      event.overran = overran;
      event.leftover_s = std::fmax(0.0, round_length_s - total_s);
      event.zone_hits.assign(geometry_.num_zones(), 0);
      for (size_t j = 0; j < n; ++j) ++event.zone_hits[s.zone[j]];
      config_.trace->Record(std::move(event));
    }
  }
  // Resolve degraded fragments: on time only if every surviving disk's
  // reconstruction read met the deadline.
  int64_t reconstructed = 0;
  for (const auto& [id, slot] : s.recon) {
    if (s.late[static_cast<size_t>(slot)] != 0) {
      ++round_glitches;
      RecordGlitch(id, s.fragment_bytes[static_cast<size_t>(slot)]);
    } else {
      fragments_served_++;
      reconstructed_fragments_++;
      ++reconstructed;
    }
  }
  if (reconstructed > 0 && config_.metrics != nullptr) {
    config_.metrics->GetCounter("server.repair.reconstructed_fragments")
        ->Increment(reconstructed);
  }

  // Account this round's rebuild progress. A stripe counts only when all
  // of its reconstruction reads were on time; incomplete jobs need no
  // carry state — later rounds simply claim those stripes again.
  if (repair_jobs > 0) {
    if (repair_reads_late > 0 && config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.repair.read_glitches")
          ->Increment(repair_reads_late);
    }
    int completed = 0;
    for (const uint8_t late : repair_job_late_) {
      if (late == 0) ++completed;
    }
    const int target = repair_->target_disk();
    if (repair_->RecordRoundOutcome(completed)) {
      // Rebuild done: the spare takes the failed disk's slot. Clear the
      // degraded flag right away (not at the next census) so admission
      // and the degraded limit lift as soon as the array is whole.
      spare_active_[static_cast<size_t>(target)] = 1;
      round_failed_[static_cast<size_t>(target)] = 0;
      degraded_now_ = false;
      for (const uint8_t failed : round_failed_) {
        if (failed != 0) degraded_now_ = true;
      }
      // Keep the edge detector honest: a *new* failure next round is a
      // fresh degraded edge and must shed again.
      degraded_prev_ = degraded_now_;
      NotifyLimitChangeIfNeeded();
    }
  }
  if (config_.parity && failed_count > 0) {
    rounds_degraded_++;
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.repair.rounds_degraded")
          ->Increment();
    }
  }

  if (config_.metrics != nullptr) metrics_.rounds->Increment();
  ++round_;

  // Degradation: feed the round's measurements to the controller and
  // carry out its orders. Runs after round_ advances so shed streams drop
  // out starting with the next round's batches.
  if (degradation_ != nullptr) {
    const fault::DegradationCommand command = degradation_->ObserveRound(
        active_at_start, round_glitches, round_overran);
    admissions_open_ = command.admissions_open;
    if (command.shed_streams > 0) ShedStreams(command.shed_streams);
  }
}

void MediaServer::ShedStreams(int count) {
  // Victims: lowest priority class first; within a class, newest stream
  // (highest id) first, so long-lived viewers survive a shed.
  std::vector<std::pair<int, int>> candidates;  // (priority_class, id)
  candidates.reserve(streams_.size());
  for (const auto& [id, stream] : streams_) {
    candidates.emplace_back(stream.priority_class, id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const std::pair<int, int>& a, const std::pair<int, int>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;
            });
  const int to_shed = std::min<int>(count, static_cast<int>(candidates.size()));
  for (int i = 0; i < to_shed; ++i) {
    ZS_CHECK(CloseStream(candidates[static_cast<size_t>(i)].second).ok());
    streams_shed_++;
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("server.streams.shed")->Increment();
    }
  }
}

void MediaServer::ShedToDegradedLimit() {
  const int limit = EffectivePhaseLimit();
  for (int p = 0; p < NumPhases(); ++p) {
    int excess = phase_counts_[static_cast<size_t>(p)] - limit;
    if (excess <= 0) continue;
    // Same victim order as ShedStreams, restricted to this phase: lowest
    // priority class first, newest first within a class.
    std::vector<std::pair<int, int>> candidates;  // (priority_class, id)
    for (const auto& [id, stream] : streams_) {
      if (stream.phase == p) candidates.emplace_back(stream.priority_class, id);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<int, int>& a, const std::pair<int, int>& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second > b.second;
              });
    for (int i = 0; i < excess; ++i) {
      ZS_CHECK(CloseStream(candidates[static_cast<size_t>(i)].second).ok());
      streams_shed_++;
      if (config_.metrics != nullptr) {
        config_.metrics->GetCounter("server.streams.shed")->Increment();
      }
    }
  }
}

int MediaServer::EffectivePhaseLimit() const {
  if (config_.parity && degraded_now_ &&
      config_.degraded_per_disk_stream_limit > 0) {
    return std::min(config_.per_disk_stream_limit,
                    config_.degraded_per_disk_stream_limit);
  }
  return config_.per_disk_stream_limit;
}

void MediaServer::SetLimitChangeCallback(LimitChangeCallback callback) {
  limit_change_callback_ = std::move(callback);
  last_notified_limit_ = -1;  // force the registration-time notification
  NotifyLimitChangeIfNeeded();
}

void MediaServer::NotifyLimitChangeIfNeeded() {
  if (!limit_change_callback_) return;
  const int limit = EffectivePhaseLimit();
  if (limit == last_notified_limit_) return;
  last_notified_limit_ = limit;
  limit_change_callback_(limit, NumPhases(), degraded_now_);
}

int MediaServer::PlannedPrimaryLoad(int disk) const {
  if (config_.parity) {
    const int phase = parity_striping_->PhaseForDisk(disk, round_);
    return phase >= 0 ? phase_counts_[static_cast<size_t>(phase)] : 0;
  }
  // Round-robin: disk (phase + r) mod D serves phase ((disk - r) mod D).
  const int64_t num_disks = config_.num_disks;
  const int phase = static_cast<int>(
      ((static_cast<int64_t>(disk) - round_) % num_disks + num_disks) %
      num_disks);
  return phase_counts_[static_cast<size_t>(phase)];
}

void MediaServer::RunRounds(int rounds) {
  ZS_CHECK_GE(rounds, 0);
  for (int r = 0; r < rounds; ++r) RunRound();
}

common::StatusOr<StreamStats> MediaServer::GetStreamStats(
    int stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return common::Status::NotFound("no such stream");
  }
  return it->second.stats;
}

MediaServerState MediaServer::ExportState() const {
  MediaServerState state;
  state.rng_state = rng_.SaveState();
  state.round = round_;
  state.next_stream_id = next_stream_id_;
  state.streams.reserve(streams_.size());
  for (const auto& [id, stream] : streams_) {
    StreamSnapshotState snapshot;
    snapshot.stream_id = id;
    snapshot.phase = stream.phase;
    snapshot.priority_class = stream.priority_class;
    snapshot.stream_class = stream.stream_class;
    snapshot.next_fragment = stream.next_fragment;
    snapshot.retry_bytes = stream.retry_bytes;
    snapshot.retry_attempts = stream.retry_attempts;
    snapshot.stats = stream.stats;
    state.streams.push_back(snapshot);
  }
  for (const sched::Arm& arm : arms_) {
    state.arm_cylinder.push_back(arm.cylinder());
    state.ascending.push_back(arm.ascending() ? 1 : 0);
  }
  for (int d = 0; d < config_.num_disks; ++d) {
    const bool present = static_cast<size_t>(d) < fault_injectors_.size() &&
                         fault_injectors_[static_cast<size_t>(d)] != nullptr;
    state.injector_present.push_back(present ? 1 : 0);
    if (present) {
      state.fault_injectors.push_back(
          fault_injectors_[static_cast<size_t>(d)]->ExportState());
    }
  }
  state.has_degradation = degradation_ != nullptr;
  if (degradation_ != nullptr) state.degradation = degradation_->ExportState();
  state.admissions_open = admissions_open_;
  state.fragments_served = fragments_served_;
  state.total_glitches = total_glitches_;
  state.fragments_retried = fragments_retried_;
  state.fragments_dropped = fragments_dropped_;
  state.streams_shed = streams_shed_;
  state.busy_fraction.reserve(busy_fraction_.size());
  for (const numeric::RunningStats& busy : busy_fraction_) {
    state.busy_fraction.push_back(busy.ExportState());
  }
  state.spare_active.assign(spare_active_.begin(), spare_active_.end());
  state.repair_present = repair_ != nullptr;
  if (repair_ != nullptr) state.repair = repair_->ExportState();
  state.reconstructed_fragments = reconstructed_fragments_;
  state.rounds_degraded = rounds_degraded_;
  return state;
}

common::Status MediaServer::RestoreState(
    const MediaServerState& state, const StreamDistributionResolver& resolver) {
  const size_t disks = static_cast<size_t>(config_.num_disks);
  if (state.arm_cylinder.size() != disks || state.ascending.size() != disks ||
      state.injector_present.size() != disks ||
      state.busy_fraction.size() != disks ||
      state.spare_active.size() != disks) {
    return common::Status::InvalidArgument(
        "server state per-disk vectors do not match num_disks");
  }
  if (state.round < 0 || state.next_stream_id < 0 ||
      state.fragments_served < 0 || state.total_glitches < 0 ||
      state.fragments_retried < 0 || state.fragments_dropped < 0 ||
      state.streams_shed < 0 || state.reconstructed_fragments < 0 ||
      state.rounds_degraded < 0) {
    return common::Status::InvalidArgument(
        "server state counters must be non-negative");
  }
  if (state.repair_present != (repair_ != nullptr)) {
    return common::Status::InvalidArgument(
        "server state repair presence does not match the config");
  }
  if (state.repair_present &&
      (state.repair.target_disk < -1 ||
       state.repair.target_disk >= config_.num_disks)) {
    return common::Status::InvalidArgument(
        "server state repair target disk out of range");
  }
  for (const uint8_t spare : state.spare_active) {
    if (spare > 1) {
      return common::Status::InvalidArgument(
          "server state boolean flags must be 0 or 1");
    }
    if (spare != 0 && !config_.parity) {
      return common::Status::InvalidArgument(
          "server state carries an active spare without parity striping");
    }
  }
  size_t present_count = 0;
  for (size_t d = 0; d < disks; ++d) {
    if (state.arm_cylinder[d] < 0 ||
        state.arm_cylinder[d] >= geometry_.cylinders()) {
      return common::Status::InvalidArgument(
          "server state arm cylinder out of the disk's range");
    }
    if (state.ascending[d] > 1 || state.injector_present[d] > 1) {
      return common::Status::InvalidArgument(
          "server state boolean flags must be 0 or 1");
    }
    const bool actual = d < fault_injectors_.size() &&
                        fault_injectors_[d] != nullptr;
    if ((state.injector_present[d] != 0) != actual) {
      return common::Status::InvalidArgument(
          "server state fault-injector layout does not match the config "
          "(was the snapshot taken with a different fault spec?)");
    }
    if (state.injector_present[d] != 0) ++present_count;
  }
  if (state.fault_injectors.size() != present_count) {
    return common::Status::InvalidArgument(
        "server state fault-injector count does not match the presence "
        "flags");
  }
  if (state.has_degradation != (degradation_ != nullptr)) {
    return common::Status::InvalidArgument(
        "server state degradation presence does not match the config");
  }
  // Rebuild the stream map (and derived phase counts) against the
  // config's admission limits before touching any member.
  std::vector<int> phase_counts(static_cast<size_t>(NumPhases()), 0);
  std::map<int, StreamState> streams;
  for (const StreamSnapshotState& snapshot : state.streams) {
    if (snapshot.stream_id < 0 || snapshot.stream_id >= state.next_stream_id) {
      return common::Status::InvalidArgument(
          "server state stream id outside [0, next_stream_id)");
    }
    if (snapshot.phase < 0 || snapshot.phase >= NumPhases()) {
      return common::Status::InvalidArgument(
          "server state stream phase out of range");
    }
    if (snapshot.priority_class < 0 || snapshot.next_fragment < 0 ||
        snapshot.retry_attempts < 0 ||
        snapshot.retry_attempts > config_.max_fragment_retries ||
        snapshot.stats.rounds_served < 0 || snapshot.stats.glitches < 0 ||
        snapshot.stats.retries < 0 || snapshot.stats.drops < 0) {
      return common::Status::InvalidArgument(
          "server state stream counters out of range");
    }
    if (++phase_counts[static_cast<size_t>(snapshot.phase)] >
        config_.per_disk_stream_limit) {
      return common::Status::InvalidArgument(
          "server state carries more streams on one phase than the "
          "admission limit allows");
    }
    if (snapshot.stream_class < -1 ||
        snapshot.stream_class >= static_cast<int>(class_sizes_.size()) ||
        (snapshot.stream_class >= 0) != (config_.class_model != nullptr)) {
      return common::Status::InvalidArgument(
          "server state stream class does not match the class model");
    }
    std::shared_ptr<const workload::SizeDistribution> distribution;
    if (snapshot.stream_class >= 0) {
      distribution = class_sizes_[static_cast<size_t>(snapshot.stream_class)];
    } else if (resolver) {
      distribution = resolver(snapshot);
    }
    if (distribution == nullptr) {
      return common::Status::InvalidArgument(
          "no size distribution resolved for stream " +
          std::to_string(snapshot.stream_id));
    }
    StreamState stream;
    stream.phase = snapshot.phase;
    stream.priority_class = snapshot.priority_class;
    stream.stream_class = snapshot.stream_class;
    stream.next_fragment = snapshot.next_fragment;
    stream.sizes = std::move(distribution);
    stream.retry_bytes = snapshot.retry_bytes;
    stream.retry_attempts = snapshot.retry_attempts;
    stream.stats = snapshot.stats;
    if (!streams.emplace(snapshot.stream_id, std::move(stream)).second) {
      return common::Status::InvalidArgument(
          "server state carries duplicate stream id " +
          std::to_string(snapshot.stream_id));
    }
  }
  std::vector<core::ClassCounts> phase_mixes;
  if (config_.class_model != nullptr) {
    phase_mixes.assign(phase_counts.size(),
                       core::ClassCounts(class_sizes_.size(), 0));
    for (const auto& [id, stream] : streams) {
      ++phase_mixes[static_cast<size_t>(stream.phase)]
                   [static_cast<size_t>(stream.stream_class)];
    }
    for (const core::ClassCounts& mix : phase_mixes) {
      if (!config_.class_model->Admissible(mix, config_.round_length_s,
                                           config_.class_late_tolerance)) {
        return common::Status::InvalidArgument(
            "server state carries a class mix on one phase that the class "
            "model does not admit");
      }
    }
  }
  numeric::Rng rng(config_.seed);
  if (auto status = rng.LoadState(state.rng_state); !status.ok()) {
    return status;
  }
  // Sub-component imports validate before mutating themselves, so running
  // them before the scalar commit keeps a failed restore from leaving the
  // server's own fields half-written.
  size_t next_injector = 0;
  for (size_t d = 0; d < disks; ++d) {
    if (state.injector_present[d] == 0) continue;
    if (auto status = fault_injectors_[d]->ImportState(
            state.fault_injectors[next_injector++]);
        !status.ok()) {
      return status;
    }
  }
  if (degradation_ != nullptr) {
    if (auto status = degradation_->ImportState(state.degradation);
        !status.ok()) {
      return status;
    }
  }
  if (repair_ != nullptr) {
    if (auto status = repair_->ImportState(state.repair); !status.ok()) {
      return status;
    }
  }
  rng_ = rng;
  round_ = state.round;
  next_stream_id_ = state.next_stream_id;
  streams_ = std::move(streams);
  phase_counts_ = std::move(phase_counts);
  phase_mixes_ = std::move(phase_mixes);
  for (size_t d = 0; d < arms_.size(); ++d) {
    arms_[d].Reset(state.arm_cylinder[d], state.ascending[d] != 0);
  }
  admissions_open_ = state.admissions_open;
  fragments_served_ = state.fragments_served;
  total_glitches_ = state.total_glitches;
  fragments_retried_ = state.fragments_retried;
  fragments_dropped_ = state.fragments_dropped;
  streams_shed_ = state.streams_shed;
  for (size_t d = 0; d < disks; ++d) {
    busy_fraction_[d].ImportState(state.busy_fraction[d]);
  }
  spare_active_.assign(state.spare_active.begin(), state.spare_active.end());
  reconstructed_fragments_ = state.reconstructed_fragments;
  rounds_degraded_ = state.rounds_degraded;
  // The degraded census is derived state: recompute it from the restored
  // injectors and spares (failure flags only change inside BeginRound, so
  // this reproduces the value the exporting server held).
  degraded_now_ = false;
  if (config_.parity) {
    for (size_t d = 0; d < disks; ++d) {
      const fault::FaultInjector* injector = InjectorFor(static_cast<int>(d));
      if (injector != nullptr && injector->disk_failed() &&
          spare_active_[d] == 0) {
        degraded_now_ = true;
        break;
      }
    }
  }
  degraded_prev_ = degraded_now_;
  NotifyLimitChangeIfNeeded();
  return common::Status::Ok();
}

int MediaServer::active_streams_of_class(int stream_class) const {
  ZS_CHECK_GE(stream_class, 0);
  ZS_CHECK_LT(stream_class, static_cast<int>(class_sizes_.size()));
  int count = 0;
  for (const core::ClassCounts& mix : phase_mixes_) {
    count += mix[static_cast<size_t>(stream_class)];
  }
  return count;
}

const core::ClassCounts& MediaServer::phase_mix(int phase) const {
  ZS_CHECK_GE(phase, 0);
  ZS_CHECK_LT(phase, static_cast<int>(phase_mixes_.size()));
  return phase_mixes_[static_cast<size_t>(phase)];
}

ServerStats MediaServer::GetServerStats() const {
  ServerStats stats;
  stats.rounds = round_;
  stats.fragments_served = fragments_served_;
  stats.glitches = total_glitches_;
  stats.fragments_retried = fragments_retried_;
  stats.fragments_dropped = fragments_dropped_;
  stats.streams_shed = streams_shed_;
  stats.reconstructed_fragments = reconstructed_fragments_;
  stats.repair_stripes_rebuilt =
      repair_ != nullptr ? repair_->stripes_rebuilt() : 0;
  stats.rounds_degraded = rounds_degraded_;
  stats.disk_utilization.reserve(config_.num_disks);
  for (const numeric::RunningStats& busy : busy_fraction_) {
    stats.disk_utilization.push_back(busy.count() > 0 ? busy.mean() : 0.0);
  }
  return stats;
}

}  // namespace zonestream::server
