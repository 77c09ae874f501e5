// serve_array: the serving path of a 4-disk RAID-5 MediaServer.
//
// Content is prepared from the seed (synthetic VBR videos, fragmented and
// measured), the per-disk limit is planned from the analytic model, and
// the array serves video_server_sim-style churn: viewers join every round
// (rejected once the array is full) and leave at random. Every K rounds
// the server state is snapshotted in memory (ExportState ->
// recovery::EncodeSnapshot). Each epoch runs the array intact for its
// first half; then disk 0 fails and a throttled rebuild runs to
// completion. Epochs repeat until the phase's time is spent and the rates
// are medians over epochs.
//
// Output checks: the active-stream count never exceeds max_streams() and,
// once degraded, the degraded limit; every rebuild completes; every
// snapshot decodes and a fresh server restored from it replays the next
// rounds bit-identically; the intact (stream, round) late fraction stays
// under the analytic bound by a one-sided Wilson test.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/service_time_model.h"
#include "disk/presets.h"
#include "driver/phases.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "recovery/snapshot.h"
#include "server/media_server.h"
#include "workload/fragmentation.h"
#include "workload/size_distribution.h"
#include "workload/vbr_trace.h"

namespace zsbench {
namespace {

constexpr int kNumDisks = 4;
constexpr double kRoundLengthS = 1.0;
constexpr double kLateTolerance = 0.01;
// Content library: kVideos clips of kVideoSeconds each.
constexpr int kVideos = 16;
constexpr double kVideoSeconds = 120.0;
// Epoch shape: intact rounds, then a rebuild of kRepairStripes stripes at
// kRepairThrottle per round (at least kRepairStripes / kRepairThrottle
// degraded rounds).
constexpr int64_t kIntactRounds = 3000;
constexpr int kRepairThrottle = 2;
constexpr int64_t kRepairStripes = 6000;
constexpr int64_t kSnapshotEvery = 1000;
constexpr int kVerifyRounds = 3;
// Churn: arrival attempts per round and the per-round departure
// probability of each active stream.
constexpr int kArrivalsPerRound = 2;
constexpr double kDepartureProbability = 1.0 / 300.0;
// Probability that a correct server fails the late-fraction test.
constexpr double kFalseFailure = 1e-6;
// Hook A/B (traced pass): blocks of rounds alternating plain / hooked.
constexpr int kHookBlocks = 12;
constexpr int kHookBlockRounds = 400;

struct ServeSetup {
  workload::FragmentMoments moments;
  std::optional<core::ServiceTimeModel> model;
  server::MediaServerConfig config;
  std::shared_ptr<const workload::SizeDistribution> sizes;
  std::optional<server::MediaServer> server;  // the first epoch's server
  double content_prep_s = 0.0;
};

common::Status BuildSetup(uint64_t seed, ServeSetup* setup) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  {
    ScopedSpan span(SpanId::kWorkloadContent);
    const int64_t start = NowNs();
    workload::VbrTraceConfig trace;
    trace.mean_bandwidth_bps = 200e3;
    trace.bandwidth_stddev_bps = 95e3;
    trace.scene_correlation = 0.9;
    auto generator = workload::VbrTraceGenerator::Create(trace, seed);
    if (!generator.ok()) return generator.status();
    std::vector<workload::Fragment> fragments;
    for (int video = 0; video < kVideos; ++video) {
      auto clip = workload::FragmentObject(generator->Generate(kVideoSeconds),
                                           kRoundLengthS);
      if (!clip.ok()) return clip.status();
      fragments.insert(fragments.end(), clip->begin(), clip->end());
    }
    setup->moments = workload::MeasureFragmentMoments(fragments);
    setup->content_prep_s = static_cast<double>(NowNs() - start) * 1e-9;
  }
  {
    ScopedSpan span(SpanId::kCoreModel);
    auto model = core::ServiceTimeModel::ForMultiZoneDisk(
        viking, seek, setup->moments.mean_bytes,
        setup->moments.variance_bytes2);
    if (!model.ok()) return model.status();
    setup->model.emplace(*std::move(model));
  }
  {
    ScopedSpan span(SpanId::kServerPlan);
    auto config = server::MediaServer::PlanConfig(
        viking, seek, setup->moments.mean_bytes,
        setup->moments.variance_bytes2, kNumDisks, kRoundLengthS,
        kLateTolerance, seed);
    if (!config.ok()) return config.status();
    setup->config = *config;
    setup->config.parity = true;
    server::RepairPolicy repair;
    repair.throttle_per_round = kRepairThrottle;
    repair.total_stripes = kRepairStripes;
    repair.read_bytes = setup->moments.mean_bytes;
    setup->config.repair = repair;
    auto degraded = server::MediaServer::PlanDegradedLimit(
        viking, seek, setup->moments.mean_bytes,
        setup->moments.variance_bytes2, kRoundLengthS, kLateTolerance,
        repair);
    if (!degraded.ok()) return degraded.status();
    setup->config.degraded_per_disk_stream_limit = *degraded;
    fault::DiskFailureSpec failure;
    failure.fail_at_round = kIntactRounds;  // permanent; the rebuild heals it
    setup->config.faults.disk_failures.push_back(failure);
    setup->config.fault_disk = 0;
  }
  auto sizes = workload::GammaSizeDistribution::Create(
      setup->moments.mean_bytes, setup->moments.variance_bytes2);
  if (!sizes.ok()) return sizes.status();
  setup->sizes =
      std::make_shared<workload::GammaSizeDistribution>(*std::move(sizes));
  {
    ScopedSpan span(SpanId::kServerCreate);
    auto server = server::MediaServer::Create(viking, seek, setup->config);
    if (!server.ok()) return server.status();
    setup->server.emplace(*std::move(server));
  }
  return common::Status::Ok();
}

std::string EncodeServer(const server::MediaServer& server) {
  recovery::Snapshot snapshot;
  snapshot.meta.producer = "zs_perfbench";
  snapshot.server = server.ExportState();
  return recovery::EncodeSnapshot(snapshot);
}

// One churn decision, applied identically to the server and (while a
// snapshot is being verified) to its restored twin.
struct ChurnOps {
  std::vector<int> closes;
  int arrivals = kArrivalsPerRound;
};

// Drives one server through churn rounds and keeps the phase's tallies.
class EpochRunner {
 public:
  EpochRunner(const ServeSetup& setup, server::MediaServer* server,
              uint64_t churn_seed, PhaseResult* result)
      : setup_(setup), server_(server), rng_(churn_seed), result_(result) {}

  // Runs one round (churn + RunRound + snapshot cadence); returns the
  // timed nanoseconds (snapshot verification excluded).
  int64_t Step(bool degraded_phase);

  int64_t rounds() const { return rounds_; }
  const std::vector<double>& snapshot_s() const { return snapshot_s_; }
  const std::vector<double>& snapshot_bytes() const { return snapshot_bytes_; }

 private:
  void ApplyChurn(const ChurnOps& ops, server::MediaServer* server,
                  std::vector<int>* opened);
  void StartVerification(const std::string& bytes);

  const ServeSetup& setup_;
  server::MediaServer* server_;
  std::mt19937_64 rng_;
  PhaseResult* result_;
  std::vector<int> active_;
  int64_t rounds_ = 0;
  std::vector<double> snapshot_s_;
  std::vector<double> snapshot_bytes_;
  std::optional<server::MediaServer> twin_;
  int twin_rounds_left_ = 0;
};

void EpochRunner::ApplyChurn(const ChurnOps& ops, server::MediaServer* server,
                             std::vector<int>* opened) {
  // One span per round's churn; its tag is the number of calls.
  ScopedSpan span(SpanId::kServerChurn, ops.closes.size() + ops.arrivals);
  for (const int id : ops.closes) {
    const common::Status status = server->CloseStream(id);
    if (!status.ok()) result_->Check(false, "close of an open stream");
  }
  for (int a = 0; a < ops.arrivals; ++a) {
    const auto id = server->OpenStream(setup_.sizes);
    if (id.ok()) {
      opened->push_back(*id);
    } else if (id.status().code() != common::StatusCode::kResourceExhausted) {
      result_->Check(false, "open rejected only for capacity: " +
                                id.status().ToString());
    }
  }
}

void EpochRunner::StartVerification(const std::string& bytes) {
  ScopedSpan span(SpanId::kRecoveryDecode);
  auto decoded = recovery::DecodeSnapshot(bytes);
  result_->Check(decoded.ok() && decoded->server.has_value(),
                 "every snapshot decodes");
  if (!decoded.ok() || !decoded->server.has_value()) return;
  ScopedSpan create_span(SpanId::kServerCreate);
  auto twin = server::MediaServer::Create(disk::QuantumViking2100(),
                                          disk::QuantumViking2100Seek(),
                                          setup_.config);
  const auto sizes = setup_.sizes;
  const common::Status restored =
      twin.ok() ? twin->RestoreState(
                      *decoded->server,
                      [&sizes](const server::StreamSnapshotState&) {
                        return sizes;
                      })
                : twin.status();
  result_->Check(restored.ok(),
                 "snapshot restores into a fresh server: " +
                     restored.ToString());
  if (!restored.ok()) return;
  twin_.emplace(*std::move(twin));
  twin_rounds_left_ = kVerifyRounds;
}

int64_t EpochRunner::Step(bool degraded_phase) {
  ChurnOps ops;
  for (size_t i = 0; i < active_.size();) {
    if (std::uniform_real_distribution<double>(0.0, 1.0)(rng_) <
        kDepartureProbability) {
      ops.closes.push_back(active_[i]);
      active_[i] = active_.back();
      active_.pop_back();
    } else {
      ++i;
    }
  }
  const int64_t start = NowNs();
  std::vector<int> opened;
  ApplyChurn(ops, server_, &opened);
  {
    ScopedSpan span(degraded_phase ? SpanId::kServerRoundDegraded
                                   : SpanId::kServerRound);
    server_->RunRound();
  }
  ++rounds_;
  std::string snapshot;
  if (rounds_ % kSnapshotEvery == 0) {
    const int64_t snapshot_start = NowNs();
    recovery::Snapshot container;
    container.meta.producer = "zs_perfbench";
    {
      ScopedSpan span(SpanId::kServerExport);
      container.server = server_->ExportState();
    }
    {
      ScopedSpan span(SpanId::kRecoveryEncode);
      snapshot = recovery::EncodeSnapshot(container);
    }
    snapshot_s_.push_back(static_cast<double>(NowNs() - snapshot_start) *
                          1e-9);
    snapshot_bytes_.push_back(static_cast<double>(snapshot.size()));
  }
  const int64_t timed = NowNs() - start;

  // Untimed: the restored twin replays the same churn and rounds.
  if (twin_.has_value()) {
    ScopedSpan span(SpanId::kChecks);
    std::vector<int> twin_opened;
    ApplyChurn(ops, &*twin_, &twin_opened);
    twin_->RunRound();
    result_->Check(twin_opened == opened,
                   "restored server admits the same streams");
    if (--twin_rounds_left_ == 0) {
      result_->Check(EncodeServer(*twin_) == EncodeServer(*server_),
                     "restored server replays the next rounds "
                     "bit-identically");
      twin_.reset();
    }
  }
  if (!snapshot.empty() && !twin_.has_value()) {
    ScopedSpan span(SpanId::kChecks);
    StartVerification(snapshot);
  }

  active_.insert(active_.end(), opened.begin(), opened.end());
  if (static_cast<size_t>(server_->active_streams()) != active_.size()) {
    // The server shed streams on entering degraded mode.
    std::erase_if(active_, [this](int id) {
      return !server_->GetStreamStats(id).ok();
    });
    result_->Check(static_cast<size_t>(server_->active_streams()) ==
                       active_.size(),
                   "only the server's degraded-mode shed closes streams");
  }
  result_->Check(server_->active_streams() <= server_->max_streams(),
                 "active streams <= max_streams()");
  if (server_->degraded()) {
    const int degraded_cap = (kNumDisks - 1) *
                             setup_.config.degraded_per_disk_stream_limit;
    result_->Check(server_->active_streams() <= degraded_cap,
                   "active streams <= degraded limit after the shed");
  }
  return timed;
}

// Hook A/B: two identical servers filled to the limit, one with an
// obs::Registry and a RoundTraceRecorder attached; blocks of rounds
// alternate between them. The hooks draw no randomness, so both replay the
// same sample path.
double HookOverheadFrac(const ServeSetup& setup) {
  server::MediaServerConfig config = setup.config;
  config.faults = fault::FaultSpec{};
  config.fault_disk = -1;
  config.repair.reset();
  config.degraded_per_disk_stream_limit = 0;
  obs::Registry registry;
  obs::RoundTraceRecorder trace(
      static_cast<size_t>(kHookBlockRounds) * kNumDisks);
  server::MediaServerConfig hooked_config = config;
  hooked_config.metrics = &registry;
  hooked_config.trace = &trace;
  auto plain = server::MediaServer::Create(disk::QuantumViking2100(),
                                           disk::QuantumViking2100Seek(),
                                           config);
  auto hooked = server::MediaServer::Create(disk::QuantumViking2100(),
                                            disk::QuantumViking2100Seek(),
                                            hooked_config);
  if (!plain.ok() || !hooked.ok()) return 0.0;
  // Fill both to the limit; no churn inside the timed blocks.
  while (plain->OpenStream(setup.sizes).ok()) {
  }
  while (hooked->OpenStream(setup.sizes).ok()) {
  }
  std::vector<double> plain_s;
  std::vector<double> hooked_s;
  for (int block = 0; block < kHookBlocks; ++block) {
    {
      ScopedSpan span(SpanId::kServerRoundPlain, kHookBlockRounds);
      const int64_t start = NowNs();
      plain->RunRounds(kHookBlockRounds);
      plain_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    {
      ScopedSpan span(SpanId::kServerRoundHooked, kHookBlockRounds);
      const int64_t start = NowNs();
      hooked->RunRounds(kHookBlockRounds);
      hooked_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    ScopedSpan span(SpanId::kObsTraceClear);
    trace.Clear();
  }
  return Median(hooked_s) / Median(plain_s) - 1.0;
}

class ServeArrayPhase final : public Phase {
 public:
  explicit ServeArrayPhase(const PhaseOptions& options)
      : options_(options), cpus_(AllowedCpus()) {}

  void Setup() override;
  void RunSlice() override;
  void Finish() override;

 private:
  PhaseOptions options_;
  std::vector<int> cpus_;
  std::unique_ptr<ServeSetup> setup_;
  std::vector<double> content_prep_s_;
  int epochs_ = 0;  // epoch 0 (in Setup) warms up; its rates are unused
  std::vector<double> intact_rate_;
  std::vector<double> degraded_rate_;
  int64_t intact_served_ = 0;
  int64_t intact_glitches_ = 0;
  int64_t degraded_rounds_ = 0;
  int64_t rebuilds_ = 0;
  int64_t reconstructed_ = 0;
  double utilization_sum_ = 0.0;
  int64_t utilization_count_ = 0;
  std::vector<double> snapshot_s_;
  std::vector<double> snapshot_bytes_;
};

// Setup runs up to the first timed round: content, model, plan, server,
// and one untimed warm-up epoch on that server.
void ServeArrayPhase::Setup() {
  setup_.reset();
  ScopedSpan span(SpanId::kSetup);
  const int64_t start = NowNs();
  auto next = std::make_unique<ServeSetup>();
  const common::Status status = BuildSetup(options_.seed, next.get());
  setup_ = std::move(next);
  if (!status.ok()) {
    result_.Check(false, "serve_array setup: " + status.ToString());
    healthy_ = false;
    return;
  }
  content_prep_s_.push_back(setup_->content_prep_s);
  result_.Check(setup_->config.per_disk_stream_limit > 0 &&
                    setup_->config.degraded_per_disk_stream_limit > 0,
                "planned intact and degraded limits are positive");
  epochs_ = 0;
  RunSlice();
  result_.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
}

// One epoch: intact rounds, then disk 0 fails and the rebuild runs to
// completion. The main thread is pinned for the epoch to the CPU that is
// fastest at its start.
void ServeArrayPhase::RunSlice() {
  if (!healthy_) return;
  const ScopedCpuPin pin(FastestCpu(cpus_));
  const int epoch = epochs_++;
  if (epoch > 0) {
    ScopedSpan span(SpanId::kServerCreate);
    auto server = server::MediaServer::Create(disk::QuantumViking2100(),
                                              disk::QuantumViking2100Seek(),
                                              setup_->config);
    if (!server.ok()) {
      result_.Check(false, "server create: " + server.status().ToString());
      healthy_ = false;
      return;
    }
    setup_->server.emplace(*std::move(server));
  }
  server::MediaServer& server = *setup_->server;
  EpochRunner runner(*setup_, &server,
                     options_.seed * 7919u + static_cast<uint64_t>(epoch),
                     &result_);
  int64_t intact_ns = 0;
  for (int64_t r = 0; r < kIntactRounds; ++r) intact_ns += runner.Step(false);
  const server::ServerStats at_failure = server.GetServerStats();
  int64_t degraded_ns = 0;
  int64_t rounds_degraded = 0;
  const int64_t cap = 20 * kRepairStripes / kRepairThrottle;
  do {
    degraded_ns += runner.Step(true);
    ++rounds_degraded;
  } while ((server.degraded() || server.rebuild_active()) &&
           rounds_degraded < cap);
  const server::ServerStats stats = server.GetServerStats();
  result_.Check(!server.rebuild_active() && server.spare_active(0) &&
                    stats.repair_stripes_rebuilt == kRepairStripes &&
                    stats.rounds_degraded > 0,
                "the rebuild completes onto the spare");
  result_.attempted += runner.rounds();
  intact_served_ += at_failure.fragments_served;
  intact_glitches_ += at_failure.glitches;
  if (epoch == 0) return;
  intact_rate_.push_back(static_cast<double>(kIntactRounds) /
                         (static_cast<double>(intact_ns) * 1e-9));
  degraded_rate_.push_back(static_cast<double>(rounds_degraded) /
                           (static_cast<double>(degraded_ns) * 1e-9));
  degraded_rounds_ += rounds_degraded;
  ++rebuilds_;
  reconstructed_ += stats.reconstructed_fragments;
  for (const double u : stats.disk_utilization) {
    utilization_sum_ += u;
    ++utilization_count_;
  }
  snapshot_s_.insert(snapshot_s_.end(), runner.snapshot_s().begin(),
                     runner.snapshot_s().end());
  snapshot_bytes_.insert(snapshot_bytes_.end(),
                         runner.snapshot_bytes().begin(),
                         runner.snapshot_bytes().end());
}

void ServeArrayPhase::Finish() {
  if (setup_ == nullptr || !setup_->model.has_value()) return;
  // A run too short for a timed epoch still measures one.
  while (healthy_ && epochs_ < 2) RunSlice();
  if (epochs_ == 0) return;
  const int per_disk = setup_->config.per_disk_stream_limit;
  ScopedSpan checks_span(SpanId::kChecks);
  // Late (stream, round) fraction vs the analytic bound at the planned
  // limit. Glitches of one disk sweep are correlated, so the sample is
  // deflated by the streams a sweep carries (one effective trial per
  // sweep-sized cluster) before the one-sided Wilson test.
  const double bound = [&] {
    ScopedSpan span(SpanId::kCoreBound);
    return setup_->model->LateBound(per_disk, kRoundLengthS).bound;
  }();
  const double trials = static_cast<double>(intact_served_ + intact_glitches_);
  const double lower =
      WilsonLower(static_cast<double>(intact_glitches_) / per_disk,
                  trials / per_disk, kFalseFailure);
  result_.Check(lower <= bound,
                "intact late fraction is under the analytic bound (Wilson)");
  Note("serve_array: %d epochs, N=%d/disk (degraded %d), late fraction "
       "%.3g (Wilson lower %.3g) vs bound %.3g",
       epochs_, per_disk, setup_->config.degraded_per_disk_stream_limit,
       trials > 0 ? static_cast<double>(intact_glitches_) / trials : 0.0,
       lower, bound);
  Note("serve_array: intact %s rounds/s, degraded %s rounds/s",
       FormatSummary(Summarize(intact_rate_), 1.0, "").c_str(),
       FormatSummary(Summarize(degraded_rate_), 1.0, "").c_str());
  Note("serve_array: snapshot %s, %.0f bytes",
       FormatSummary(Summarize(snapshot_s_), 1e6, "us").c_str(),
       Median(snapshot_bytes_));

  result_.Set("serve_rounds_per_s", Median(intact_rate_), "rounds/s");
  result_.Set("serve_degraded_rounds_per_s", Median(degraded_rate_),
              "rounds/s");
  result_.Set("workload.content_prep_s", Median(content_prep_s_), "s");
  result_.Set("server.fragments_per_round",
              static_cast<double>(intact_served_) /
                  static_cast<double>(std::max<int64_t>(1, epochs_) *
                                      kIntactRounds),
              "count");
  result_.Set("server.reconstruct_reads_per_round",
              static_cast<double>(reconstructed_ * (kNumDisks - 1)) /
                  static_cast<double>(std::max<int64_t>(1, degraded_rounds_)),
              "count");
  result_.Set("server.repair_stripes_per_round",
              static_cast<double>(kRepairStripes * rebuilds_) /
                  static_cast<double>(std::max<int64_t>(1, degraded_rounds_)),
              "count");
  result_.Set("server.disk_utilization",
              utilization_count_ > 0
                  ? utilization_sum_ / static_cast<double>(utilization_count_)
                  : 0.0,
              "ratio");
  result_.Set("recovery.snapshot_us", Median(snapshot_s_) * 1e6, "us");
  result_.Set("recovery.snapshot_bytes", Median(snapshot_bytes_), "bytes");
  if (options_.tracer != nullptr) {
    const ScopedCpuPin pin(FastestCpu(cpus_));
    result_.Set("obs.hook_overhead_frac", HookOverheadFrac(*setup_), "ratio");
  }
}

}  // namespace

std::unique_ptr<Phase> MakeServeArray(const PhaseOptions& options) {
  return std::make_unique<ServeArrayPhase>(options);
}

}  // namespace zsbench
