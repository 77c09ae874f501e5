// Multi-disk continuous-media server facade (§2, §5).
//
// Combines every substrate: D identical multi-zone disks, round-robin
// striping, per-disk SCAN scheduling in global rounds, and table-driven
// admission control from the analytic model (per phase against a stream
// count, or, in class mode, against the multi-class transform of the
// phase's class mix — extension X1). This is the component a
// downstream system would embed; the single-disk RoundSimulator remains the
// preferred tool for tight model-validation loops.
//
// A round issues every request first (home disk, degraded fan-out, repair
// reads), then draws its variates in whole-round batches, in the order
// RoundSimulator's batched kernel uses: 2R position uniforms (alias-table
// zone, then cylinder offset), the fresh fragment sizes (one FillSamples
// per run of consecutive streams on one distribution; a retried fragment
// draws nothing), then R rotational latencies. The R positions are drawn
// in issue order (disk/zone_position_sampler.h) and gathered per disk; each
// disk's sched::Arm serves its batch in one SCAN sweep. A one-disk server
// with N streams on one distribution is therefore the batched simulator
// with the same seed, round for round.
#ifndef ZONESTREAM_SERVER_MEDIA_SERVER_H_
#define ZONESTREAM_SERVER_MEDIA_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/admission.h"
#include "core/multiclass.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"
#include "disk/zone_position_sampler.h"
#include "fault/degradation.h"
#include "fault/fault_model.h"
#include "numeric/random.h"
#include "numeric/statistics.h"
#include "sched/ordering.h"
#include "sched/scan_kernel.h"
#include "server/parity_striping.h"
#include "server/repair.h"
#include "server/striping.h"
#include "workload/size_distribution.h"

namespace zonestream::obs {
class Counter;
class Histogram;
class Registry;
class RoundTraceRecorder;
}  // namespace zonestream::obs

namespace zonestream::server {

// Server-wide configuration.
struct MediaServerConfig {
  int num_disks = 1;
  double round_length_s = 1.0;
  // Per-disk stream limit from the analytic admission model (N_max). The
  // server-wide limit is num_disks * per_disk_stream_limit because
  // round-robin striping loads each disk with at most that many requests
  // per round once start disks are balanced.
  int per_disk_stream_limit = 0;
  uint64_t seed = 42;

  // Class-aware admission (extension X1). With a class model set, streams
  // open by class index (OpenStream(int)) and draw Gamma fragment sizes
  // with their class's moments; a phase admits a stream of class c only
  // if its class mix plus that stream still satisfies
  // b_late(mix, t) <= class_late_tolerance, on top of the per-phase count
  // limit. Every disk then serves an admissible mix every round, for any
  // interleaving of opens and closes. Null (default): streams open by
  // size distribution against the count limit alone.
  std::shared_ptr<const core::MultiClassServiceModel> class_model;
  double class_late_tolerance = 0.01;  // delta, in (0, 1)

  // Structured fault injection (fault/fault_model.h). Each disk runs an
  // independent FaultInjector built from this spec, seeded from a
  // per-disk substream of `seed`, so faults on one disk never perturb
  // another disk's draws and the empty default consumes no randomness
  // (clean runs stay bit-identical). Injector metrics land under
  // "server.fault.disk<d>.".
  fault::FaultSpec faults;
  // Which disk runs `faults`: -1 (default) applies the spec to every
  // disk; otherwise only this disk index misbehaves — the single-bad-disk
  // scenario degradation and array re-planning are built for.
  int fault_disk = -1;

  // Graceful degradation (fault/degradation.h). When set, a
  // DegradationController watches the measured per-stream glitch rate
  // each round; on sustained violation it closes admissions and sheds
  // streams (lowest priority_class first, newest first within a class)
  // until the §3.3 bound holds again, with hysteresis at both edges.
  std::optional<fault::DegradationPolicy> degradation;

  // Bounded retry of fragments cut at the round deadline: a glitched
  // fragment is re-issued (same size, fresh position) in the stream's
  // following rounds up to this many attempts, then dropped for good.
  // 0 (default) preserves the historical drop-immediately behavior.
  int max_fragment_retries = 0;

  // RAID-5 rotating-parity striping (server/parity_striping.h). With
  // parity on, each service round is one stripe row: the D disks carry
  // D-1 data phases plus a parity unit that rotates one disk per round,
  // so streaming capacity is (num_disks - 1) * per_disk_stream_limit.
  // The payoff: a single failed disk no longer glitches its streams —
  // their fragments are reconstructed by one read on every surviving
  // disk (a fragment is on time only if all D-1 reconstruction reads
  // are). Requires num_disks >= 2. With two or more disks down the
  // stripe cannot be reconstructed and the failed disks' streams glitch
  // through the usual retry/drop ledger.
  bool parity = false;

  // Online rebuild onto a hot spare (server/repair.h). Requires parity.
  // When a disk fails, a RepairController claims up to
  // repair->throttle_per_round stripe-rebuild jobs per round — each one
  // reconstruction read on every surviving disk, SCAN-scheduled in the
  // same round as stream I/O so repair and streams contend for round
  // time — until repair->total_stripes stripes are rebuilt. The spare
  // then takes the failed disk's slot and the array serves intact
  // again. If the disk heals on its own first (a transient fault), the
  // rebuild is cancelled. Progress rides in snapshots (recovery::) for
  // bit-identical resume mid-rebuild.
  std::optional<RepairPolicy> repair;

  // Per-disk stream limit enforced while the array is degraded (some
  // disk failed and not yet rebuilt onto its spare). 0 keeps
  // per_disk_stream_limit. Derive it from PlanDegradedLimit /
  // core::MaxStreamsByLateProbabilityDegraded so P(late) <= delta holds
  // while each survivor absorbs the failed disk's reconstruction reads
  // plus the repair throttle share; on entering degraded mode the
  // server sheds each phase down to this limit (lowest priority class
  // first, newest first) and holds new admissions to it. Requires
  // parity.
  int degraded_per_disk_stream_limit = 0;

  // Optional observability hooks (not owned; null = disabled). Metrics
  // land under the "server." prefix (admission decisions, per-round disk
  // service times, glitches); `trace` receives one obs::RoundTraceEvent
  // per (round, disk) with source_id = disk index. Names are listed in
  // docs/OBSERVABILITY.md.
  obs::Registry* metrics = nullptr;
  obs::RoundTraceRecorder* trace = nullptr;
};

// Per-stream service-quality counters.
struct StreamStats {
  int64_t rounds_served = 0;
  int64_t glitches = 0;
  int64_t retries = 0;  // deadline-cut fragments re-issued
  int64_t drops = 0;    // fragments dropped after exhausting retries
};

// Server-wide counters.
struct ServerStats {
  int64_t rounds = 0;
  int64_t fragments_served = 0;
  int64_t glitches = 0;
  int64_t fragments_retried = 0;
  int64_t fragments_dropped = 0;
  int64_t streams_shed = 0;  // closed by the degradation controller
  // Parity/repair surface (all zero without parity striping).
  int64_t reconstructed_fragments = 0;  // served via degraded parity reads
  int64_t repair_stripes_rebuilt = 0;
  int64_t rounds_degraded = 0;  // rounds served with a failed disk
  // Mean busy fraction (sweep time / round length) per disk.
  std::vector<double> disk_utilization;
};

// Checkpointed state of one open stream. The fragment-size distribution
// itself is not serialized (it may be an arbitrary SizeDistribution
// object); RestoreState re-binds each stream to a distribution through
// the caller's resolver.
struct StreamSnapshotState {
  int stream_id = 0;
  int phase = 0;
  int priority_class = 0;
  int stream_class = -1;  // class index; -1 when opened by distribution
  int64_t next_fragment = 0;
  double retry_bytes = -1.0;  // < 0: no fragment awaiting re-issue
  int retry_attempts = 0;
  StreamStats stats;
};

// Complete restartable state of a MediaServer: the request RNG position,
// round/stream-id counters, every open stream, per-disk arm state,
// per-disk fault injector states, the degradation controller, and all
// aggregate counters. Restoring it onto a server freshly Created from the
// same (geometry, seek, config) continues the run bit-identically.
// phase_counts_ is derived from the streams; metric values live in the
// obs::Registry and are restored separately via Registry::ImportState.
struct MediaServerState {
  std::string rng_state;  // numeric::Rng::SaveState
  int64_t round = 0;
  int64_t next_stream_id = 0;
  std::vector<StreamSnapshotState> streams;
  std::vector<int64_t> arm_cylinder;        // one per disk
  std::vector<uint8_t> ascending;           // one per disk (0/1)
  std::vector<uint8_t> injector_present;    // one per disk (0/1)
  // States of the present injectors, in ascending disk order.
  std::vector<fault::FaultInjectorState> fault_injectors;
  bool has_degradation = false;
  fault::DegradationControllerState degradation;
  bool admissions_open = true;
  int64_t fragments_served = 0;
  int64_t total_glitches = 0;
  int64_t fragments_retried = 0;
  int64_t fragments_dropped = 0;
  int64_t streams_shed = 0;
  std::vector<numeric::RunningStatsState> busy_fraction;  // one per disk
  // Parity/repair machinery (defaults describe a non-parity server, so
  // pre-parity snapshot producers round-trip unchanged).
  std::vector<uint8_t> spare_active;  // one per disk (0/1)
  bool repair_present = false;        // RepairController configured
  RepairControllerState repair;       // meaningful when repair_present
  int64_t reconstructed_fragments = 0;
  int64_t rounds_degraded = 0;
};

// Maps a checkpointed stream back to its fragment-size distribution at
// restore time (the snapshot records stream identity, not the
// distribution object). Returning null fails the restore.
using StreamDistributionResolver =
    std::function<std::shared_ptr<const workload::SizeDistribution>(
        const StreamSnapshotState& stream)>;

// The server. Not thread-safe; drive it from one scheduler thread as the
// paper's architecture does.
class MediaServer {
 public:
  static common::StatusOr<MediaServer> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      const MediaServerConfig& config);

  // Derives a full MediaServerConfig from the analytic §3.2 model: the
  // per-disk stream limit is the largest N with b_late(N, t) <= delta,
  // found with a warm-started admission scan. This is the §5 deployment
  // flow — plan once per (disk, workload) configuration, then serve with
  // O(1) admission.
  static common::StatusOr<MediaServerConfig> PlanConfig(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      double fragment_mean_bytes, double fragment_variance_bytes2,
      int num_disks, double round_length_s, double late_tolerance,
      uint64_t seed = 42);

  // Degraded-mode companion to PlanConfig: the largest per-disk stream
  // level N with b_late(2N + throttle, t) <= late_tolerance — safe while
  // one disk of a parity array is down and each survivor serves its own
  // phase, the failed disk's reconstruction reads, and the repair
  // throttle share (core::MaxStreamsByLateProbabilityDegraded). Wire the
  // result into MediaServerConfig::degraded_per_disk_stream_limit.
  // Returns the limit, possibly 0 (degraded service meeting the
  // tolerance is impossible; pause repair or relax the contract).
  static common::StatusOr<int> PlanDegradedLimit(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      double fragment_mean_bytes, double fragment_variance_bytes2,
      double round_length_s, double late_tolerance,
      const RepairPolicy& repair);

  // Admission-controlled stream open. Fragment sizes are drawn from
  // `sizes`; the stream plays forever until CloseStream. Returns the stream
  // id, or ResourceExhausted when the admission limit is reached.
  //
  // Streams are assigned to the least-loaded *phase*: with round-robin
  // striping, a stream's disk in round r is (phase + r) mod D, so all
  // streams sharing a phase always hit the same disk together. Enforcing
  // the per-disk limit per phase keeps every disk at or under N_max each
  // round even as streams churn — the "load is uniformly distributed
  // across disks" precondition of the analytic model (§3).
  common::StatusOr<int> OpenStream(
      std::shared_ptr<const workload::SizeDistribution> sizes);

  // As above, with an explicit priority class. Classes only matter under
  // degradation: when the controller sheds load, lower-numbered classes
  // go first (class 0 is best-effort; the plain OpenStream overload).
  // Both overloads need a server without a class model.
  common::StatusOr<int> OpenStream(
      std::shared_ptr<const workload::SizeDistribution> sizes,
      int priority_class);

  // Class-aware open (needs MediaServerConfig::class_model): admits the
  // stream onto the least-loaded phase (ties to the lowest index) that is
  // under the count limit and whose class mix plus this stream passes the
  // model's b_late test, with best-effort priority. Returns
  // ResourceExhausted when no phase can absorb it.
  common::StatusOr<int> OpenStream(int stream_class);

  // Closes an open stream.
  common::Status CloseStream(int stream_id);

  // Serves one global round on all disks.
  void RunRound();

  // Serves `rounds` rounds.
  void RunRounds(int rounds);

  // Per-stream and server-wide statistics.
  common::StatusOr<StreamStats> GetStreamStats(int stream_id) const;
  ServerStats GetServerStats() const;

  int active_streams() const { return static_cast<int>(streams_.size()); }
  // Server-wide admission capacity: one phase per data disk. Parity
  // arrays give one disk per round to the rotating parity unit, so only
  // num_disks - 1 phases carry streams.
  int max_streams() const {
    return NumPhases() * config_.per_disk_stream_limit;
  }
  int64_t current_round() const { return round_; }

  // Class-mode surface (needs a class model): open streams of a class
  // across the server, and the class mix a phase carries.
  int active_streams_of_class(int stream_class) const;
  const core::ClassCounts& phase_mix(int phase) const;

  // Parity/repair surface. Degraded means some disk is failed and not
  // yet rebuilt onto its spare (always false without parity striping).
  bool degraded() const { return degraded_now_; }
  bool rebuild_active() const {
    return repair_ != nullptr && repair_->active();
  }
  int rebuild_target_disk() const {
    return repair_ != nullptr ? repair_->target_disk() : -1;
  }
  int64_t repair_stripes_rebuilt() const {
    return repair_ != nullptr ? repair_->stripes_rebuilt() : 0;
  }
  bool spare_active(int disk) const {
    return spare_active_[static_cast<size_t>(disk)] != 0;
  }

  // Degradation surface. With no controller configured, the state is
  // kNormal, the event log empty, and admissions always open.
  bool admissions_open() const { return admissions_open_; }
  fault::DegradationState degradation_state() const {
    return degradation_ != nullptr ? degradation_->state()
                                   : fault::DegradationState::kNormal;
  }
  std::vector<fault::DegradationEvent> degradation_events() const {
    return degradation_ != nullptr ? degradation_->events()
                                   : std::vector<fault::DegradationEvent>{};
  }

  // Checkpoint support. ExportState captures everything RunRound /
  // OpenStream consult; RestoreState applies it to a server freshly
  // Created from the same (geometry, seek, config), re-binding each
  // stream's size distribution through `resolver` (class-mode streams
  // re-bind to their class's distribution; the resolver is not consulted).
  // Validates shape (per-disk vector sizes, phases and arm cylinders in
  // range, per-phase occupancy within the admission limit and, in class
  // mode, class mixes the model admits, fault/degradation presence
  // matching the config) and restores nothing on mismatch.
  MediaServerState ExportState() const;
  common::Status RestoreState(const MediaServerState& state,
                              const StreamDistributionResolver& resolver);

  // Limit-change publication. The callback fires whenever the per-phase
  // admission limit in force changes — entering degraded mode (the
  // configured degraded limit kicks in), rebuild completion lifting it,
  // or a RestoreState that lands in a different mode. It also fires once
  // at registration with the current limit, so a subscriber (e.g. an
  // admission-service daemon scaling its published class limits) starts
  // synchronized without a separate bootstrap read. Invoked from the
  // scheduler thread; keep it cheap and re-entrancy-free (do not call
  // back into this MediaServer from inside the callback).
  using LimitChangeCallback =
      std::function<void(int per_phase_limit, int num_phases, bool degraded)>;
  void SetLimitChangeCallback(LimitChangeCallback callback);

 private:
  struct StreamState {
    int phase = 0;  // disk in round r is (phase + r) mod num_disks
    int priority_class = 0;
    int stream_class = -1;  // class-mode class index, else -1
    int64_t next_fragment = 0;
    std::shared_ptr<const workload::SizeDistribution> sizes;  // i.i.d.
    // Deadline-cut fragment awaiting re-issue (< 0: none pending).
    double retry_bytes = -1.0;
    int retry_attempts = 0;
    StreamStats stats;
  };

  MediaServer(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      const MediaServerConfig& config,
      std::vector<std::unique_ptr<fault::FaultInjector>> injectors,
      std::vector<std::shared_ptr<const workload::SizeDistribution>>
          class_sizes);

  // Admission shared by both OpenStream forms (stream_class -1: by
  // distribution, against the count limit alone).
  common::StatusOr<int> Admit(
      std::shared_ptr<const workload::SizeDistribution> sizes,
      int priority_class, int stream_class);

  // Class mode: the phase a stream of `stream_class` is admitted onto, or
  // -1 when none can absorb it.
  int ClassPhaseFor(int stream_class) const;

  // Applies retry/drop bookkeeping for one glitched fragment.
  void RecordGlitch(int stream_id, double fragment_bytes);

  // Closes `count` streams, lowest priority class first (newest first
  // within a class), on the degradation controller's orders.
  void ShedStreams(int count);

  // On entering degraded mode: sheds every phase down to the effective
  // per-phase limit (same victim order as ShedStreams, per phase).
  void ShedToDegradedLimit();

  // Stream-carrying phases: D round-robin, D-1 under parity.
  int NumPhases() const {
    return config_.parity ? config_.num_disks - 1 : config_.num_disks;
  }

  // Per-phase admission limit in force right now (the degraded limit
  // while the parity array is degraded, if one is configured).
  int EffectivePhaseLimit() const;

  // Fires limit_change_callback_ if EffectivePhaseLimit() moved since the
  // last notification. Call after any degraded_now_ transition.
  void NotifyLimitChangeIfNeeded();

  // Disk d's fault injector, or null.
  fault::FaultInjector* InjectorFor(int disk) const {
    return static_cast<size_t>(disk) < fault_injectors_.size()
               ? fault_injectors_[static_cast<size_t>(disk)].get()
               : nullptr;
  }

  // Stream requests disk `disk` is scheduled to carry this round before
  // any degraded fan-out or repair reads (the fault injectors' declared
  // per-round load).
  int PlannedPrimaryLoad(int disk) const;

  disk::DiskGeometry geometry_;
  disk::ZonePositionSampler positions_;  // over geometry_'s zone law
  disk::SeekTimeModel seek_;
  MediaServerConfig config_;
  RoundRobinStriping striping_;
  std::optional<ParityStriping> parity_striping_;  // set when config_.parity
  numeric::Rng rng_;
  int64_t round_ = 0;
  int64_t next_stream_id_ = 0;
  std::vector<int> phase_counts_;  // active streams per phase
  // Class mode: Gamma sizes per class, and each phase's class mix (both
  // empty without a class model).
  std::vector<std::shared_ptr<const workload::SizeDistribution>> class_sizes_;
  std::vector<core::ClassCounts> phase_mixes_;
  std::map<int, StreamState> streams_;
  // Per-disk arm state.
  std::vector<sched::Arm> arms_;
  // Fault & degradation machinery (empty / null when not configured).
  std::vector<std::unique_ptr<fault::FaultInjector>> fault_injectors_;
  std::unique_ptr<fault::DegradationController> degradation_;
  bool admissions_open_ = true;
  // Parity/repair machinery. A disk whose spare_active_ flag is set has
  // been rebuilt onto its hot spare: its injector keeps ticking (so
  // snapshots keep their shape) but no longer affects service.
  std::unique_ptr<RepairController> repair_;
  std::vector<uint8_t> spare_active_;
  bool degraded_now_ = false;   // last census: some disk effectively failed
  bool degraded_prev_ = false;  // previous round's census (shed edge)
  // Limit-change publication (null / -1 until SetLimitChangeCallback).
  LimitChangeCallback limit_change_callback_;
  int last_notified_limit_ = -1;
  int64_t reconstructed_fragments_ = 0;
  int64_t rounds_degraded_ = 0;
  // Aggregates.
  int64_t fragments_served_ = 0;
  int64_t total_glitches_ = 0;
  int64_t fragments_retried_ = 0;
  int64_t fragments_dropped_ = 0;
  int64_t streams_shed_ = 0;
  std::vector<numeric::RunningStats> busy_fraction_;
  // Per-round metric handles, resolved once at construction (all null
  // when config_.metrics is unset).
  struct RoundMetrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* glitches = nullptr;
    obs::Counter* overruns = nullptr;
    obs::Histogram* service_time_s = nullptr;  // per (round, disk)
    obs::Histogram* utilization = nullptr;     // per (round, disk)
  };
  RoundMetrics metrics_;
  // Fresh fragments of consecutive streams on one size distribution:
  // fragment slots [begin, end), drawn with one FillSamples call.
  struct SizeRun {
    int begin = 0;
    int end = 0;
    const workload::SizeDistribution* sizes = nullptr;
  };
  // Per-round scratch, refilled each round with capacity kept, so
  // steady-state rounds allocate nothing.
  struct RoundScratch {
    // The round's R requests in issue order (the walk over streams_):
    // the stream id (repair reads: kRepairStreamIdBase - job) and the
    // fragment slot holding the request's bytes.
    std::vector<int> owner;
    std::vector<int> slot;
    std::vector<std::vector<int>> by_disk;  // request indices per disk
    std::vector<int> phase_disk;            // this round's disk per phase
    // Fragment slots: one per stream served this round, then the repair
    // read size. A degraded read's D-1 requests share their slot, which
    // turns late if any of them is.
    std::vector<double> fragment_bytes;
    std::vector<uint8_t> reconstructed;
    std::vector<uint8_t> late;
    std::vector<std::pair<int, int>> recon;  // (stream id, slot), walk order
    std::vector<SizeRun> size_runs;
    // Variates in draw order: 2R position uniforms (zones, then cylinder
    // offsets) and R rotational latencies.
    std::vector<double> u_pos;
    std::vector<double> rotation;
    // The R positions those uniforms name, in issue order.
    std::vector<int> issue_zone;
    std::vector<int> issue_cylinder;
    std::vector<double> issue_rate_bps;
    // One disk's batch as structure-of-arrays, in issue order.
    std::vector<int> cylinder;
    std::vector<int> zone;
    std::vector<double> bytes;
    std::vector<double> rate_bps;
    std::vector<double> rotation_s;  // rotational latency + fault delay
    sched::ScanKernel sweep;
  };
  RoundScratch scratch_;
  std::vector<uint8_t> round_failed_;     // this round's failure census
  std::vector<uint8_t> repair_job_late_;  // per claimed rebuild job
};

}  // namespace zonestream::server

#endif  // ZONESTREAM_SERVER_MEDIA_SERVER_H_
