// Lock-free admission control plane (§5 deployed at scale).
//
// The paper's §5 deployment sketch precomputes the tolerance -> N_max
// admission table offline and answers each admit with one table lookup.
// This service is that sketch grown into a control plane sized for
// millions of concurrent sessions:
//
//   * Admission fast path: the current table (flattened into a
//     core::AdmissionTableSnapshot) plus the per-class limits live in an
//     immutable ServingLimits object published through an RCU pointer
//     (service/rcu.h). An admit takes a wait-free read guard, binary
//     searches the flat arrays, and never blocks on a table rebuild.
//   * Occupancy: one cache-line-padded atomic per class; admit is a
//     relaxed load + CAS loop (no mutex), teardown a fetch_sub.
//     Capacity rejects are decided before any registry work, so a flash
//     crowd beyond the limit costs two atomics per reject.
//   * Sessions: a sharded lock-free registry (service/session_registry.h)
//     with preallocated record slabs — steady-state admit/teardown
//     performs no heap allocation (pinned by an allocation-counting
//     test).
//
// Cross-cutting wiring: obs::Registry metrics (service.* counters, a
// log-bucketed admit-latency histogram that each admit records into
// directly, per-shard occupancy gauges), checkpoint/restore through
// an exact byte codec (the recovery snapshot's v3 service section calls
// it), and the zonestream_admitd daemon front-end (service/daemon.h).
// See docs/SERVICE.md for the operational picture.
#ifndef ZONESTREAM_SERVICE_ADMISSION_SERVICE_H_
#define ZONESTREAM_SERVICE_ADMISSION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/admission.h"
#include "obs/metrics.h"
#include "service/rcu.h"
#include "service/session_registry.h"

namespace zonestream::service {

// One quality-of-service class: sessions admitted under `name` are held
// to tolerance `tolerance` (delta or epsilon, per the table criterion).
struct AdmissionClassConfig {
  // Metric-safe segment ([a-z0-9_], non-empty): appears in gauge names.
  std::string name;
  double tolerance = 0.0;
};

struct AdmissionServiceConfig {
  // Classes, strictly ascending by tolerance (tolerance-based admission
  // resolves a request to the strictest class it satisfies).
  std::vector<AdmissionClassConfig> classes;
  // Multiplies each class's table limit: a table row bounds streams per
  // disk per round, and a server with D disks serves D phase groups, so
  // the serving limit is N_max * D (see MediaServer::EffectivePhaseLimit
  // for the degraded-mode variant that republishes a smaller scale).
  int64_t limit_scale = 1;
  SessionRegistryOptions registry;
  // Null disables observability entirely (hot path untouched).
  obs::Registry* metrics = nullptr;
};

enum class ServiceResult : uint8_t {
  kOk = 0,
  kRejectedCapacity,
  kDuplicate,
  kNotFound,
  kUnknownClass,
  kRegistryFull,
  kInvalidSession,
};

const char* ServiceResultName(ServiceResult result);

struct ServiceOutcome {
  ServiceResult result = ServiceResult::kOk;
  uint64_t session_id = 0;
  uint32_t class_index = 0;
  // Class occupancy after the operation (on success) or at the moment of
  // rejection, and the limit it was judged against.
  int64_t occupancy = 0;
  int64_t limit = 0;
};

// The immutable object behind the RCU pointer: everything the admit fast
// path needs, flattened into contiguous arrays.
struct ServingLimits {
  uint64_t version = 0;
  core::AdmissionTableSnapshot table;
  // Canonical AdmissionTable::Serialize() text of the published table
  // ("" when limits were set directly); carried for checkpointing.
  std::string table_text;
  std::vector<int64_t> class_limits;  // indexed by class
  int64_t limit_scale = 1;
};

struct ServiceClassStats {
  std::string name;
  double tolerance = 0.0;
  int64_t occupancy = 0;
  int64_t limit = 0;
};

struct ServiceStats {
  int64_t live_sessions = 0;
  uint64_t limits_version = 0;
  int64_t limit_scale = 1;
  size_t table_rows = 0;
  std::vector<ServiceClassStats> classes;
  RegistryStats registry;
};

struct ReconcileReport {
  // Per class: sessions counted in the registry, and the adjustment
  // applied to the occupancy counter (0 = no drift).
  std::vector<int64_t> counted;
  std::vector<int64_t> adjustment;
  int64_t total_drift = 0;
};

// Exact state of an AdmissionService, for checkpoint/restore. Sessions
// are ascending by id, so the encoding (and its digest) is canonical.
struct SessionRecord {
  uint64_t session_id = 0;
  uint32_t class_index = 0;
  int64_t admit_seq = 0;
};

struct AdmissionServiceState {
  uint64_t next_session_id = 1;
  int64_t next_admit_seq = 0;
  uint64_t limits_version = 0;
  int64_t limit_scale = 1;
  std::string table_text;
  std::vector<int64_t> class_limits;
  std::vector<SessionRecord> sessions;
};

// Canonical byte codec for AdmissionServiceState; the recovery snapshot
// embeds exactly these bytes as its v3 service section, and the state
// digest is the CRC-64 of them, so daemon and snapshot digests agree by
// construction.
std::string EncodeAdmissionServiceState(const AdmissionServiceState& state);
common::StatusOr<AdmissionServiceState> DecodeAdmissionServiceState(
    std::string_view bytes);
uint64_t AdmissionServiceStateDigest(const AdmissionServiceState& state);

class AdmissionService {
 public:
  static common::StatusOr<std::unique_ptr<AdmissionService>> Create(
      const AdmissionServiceConfig& config);

  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  // --- Publication (slow path; any thread; internally serialized) ---

  // Publishes a rebuilt admission table: each class limit becomes
  // table.MaxStreams(class tolerance) * limit_scale. Readers in flight
  // keep the old snapshot; new admits see the new one.
  void PublishTable(const core::AdmissionTable& table);

  // Republishes the current table with a new scale (e.g. the media
  // server dropped to degraded mode and the per-disk limit changed).
  void PublishScale(int64_t limit_scale);

  // Directly overrides the per-class limits (no table). Size must match
  // the class count; entries must be >= 0.
  common::Status PublishLimits(const std::vector<int64_t>& limits);

  // --- Fast path (lock-free; any thread; allocation-free) ---
  // Operations on the SAME session id must be externally serialized
  // (the daemon serializes per connection); different ids may race
  // freely.

  // Admits a session into `class_index`. `session_id` 0 auto-assigns.
  ServiceOutcome Admit(uint64_t session_id, uint32_t class_index);

  // Admits into the loosest class that still satisfies the request:
  // the largest class tolerance <= `tolerance`, with equality selecting
  // the class — the same `>=` boundary contract as
  // AdmissionTable::MaxStreams. kUnknownClass when the request is
  // strictly below every class.
  ServiceOutcome AdmitByTolerance(uint64_t session_id, double tolerance);

  ServiceOutcome Teardown(uint64_t session_id);

  // VCR-style transition to another class (pause/fast-forward tiers map
  // to classes with different tolerances). Admission against the new
  // class's limit; the old slot is released only on success.
  ServiceOutcome Transition(uint64_t session_id, uint32_t new_class_index);

  // --- Introspection / maintenance (slow path) ---

  ServiceStats Stats() const;

  // Recounts occupancy from the registry and folds any drift back into
  // the counters. The relaxed counters cannot drift under correct use;
  // this is the operational safety net (run quiesced for exact zeros).
  ReconcileReport ReconcileOccupancy();

  // Periodic observability flush: refreshes the gauges (the counters and
  // the latency histogram are always live). No-op without a metrics
  // registry.
  void FlushObservability();

  // --- Checkpoint/restore ---

  AdmissionServiceState ExportState() const;
  // Only valid on a service with no live sessions; rebuilds registry
  // contents, occupancy, and published limits from `state`. On failure
  // the service may be partially populated — recreate it (the recovery
  // path always restores into a freshly created service).
  common::Status RestoreState(const AdmissionServiceState& state);
  // CRC-64 of the canonical encoding of ExportState().
  uint64_t Digest() const;

  // --- Accessors ---

  size_t class_count() const { return class_tolerances_.size(); }
  const std::string& class_name(size_t i) const { return class_names_[i]; }
  double class_tolerance(size_t i) const { return class_tolerances_[i]; }
  int64_t occupancy(size_t i) const {
    return occupancy_[i].value.load(std::memory_order_relaxed);
  }
  const SessionRegistry& registry() const { return *registry_; }

  // Admit-latency quantile from the service.admit.latency_s histogram
  // (seconds); 0 without a metrics registry or before the first admit.
  // For benchmarks and stats.
  double LatencyQuantile(double q) const;

 private:
  struct alignas(64) PaddedCounter {
    std::atomic<int64_t> value{0};
  };

  explicit AdmissionService(const AdmissionServiceConfig& config);

  ServiceOutcome DoAdmit(uint64_t session_id, uint32_t class_index);
  void PublishLocked(std::unique_ptr<ServingLimits> next);
  void CountResult(ServiceResult result, obs::Counter* const* table);

  // Class config (immutable after Create).
  std::vector<std::string> class_names_;
  std::vector<double> class_tolerances_;  // strictly ascending

  mutable RcuDomain rcu_domain_;
  RcuPtr<ServingLimits> limits_;
  std::mutex publish_mutex_;  // serializes read-modify-publish cycles

  std::unique_ptr<SessionRegistry> registry_;
  std::unique_ptr<PaddedCounter[]> occupancy_;

  std::atomic<uint64_t> next_session_id_{SessionRegistry::kMinSessionId};
  std::atomic<int64_t> next_admit_seq_{0};
  std::atomic<uint64_t> version_counter_{0};

  // Metrics (null when disabled). Indexed by ServiceResult where noted.
  obs::Registry* metrics_ = nullptr;
  obs::Counter* admit_requests_ = nullptr;
  obs::Counter* admit_by_result_[7] = {};
  obs::Counter* teardown_requests_ = nullptr;
  obs::Counter* teardown_by_result_[7] = {};
  obs::Counter* transition_requests_ = nullptr;
  obs::Counter* transition_by_result_[7] = {};
  obs::Counter* publishes_ = nullptr;
  obs::Counter* reconcile_runs_ = nullptr;
  obs::Counter* reconcile_drift_ = nullptr;
  obs::Histogram* latency_histogram_ = nullptr;
  obs::Gauge* live_gauge_ = nullptr;
  obs::Gauge* version_gauge_ = nullptr;
  obs::Gauge* scale_gauge_ = nullptr;
  std::vector<obs::Gauge*> class_occupancy_gauges_;
  std::vector<obs::Gauge*> class_limit_gauges_;
  std::vector<obs::Gauge*> shard_live_gauges_;
};

}  // namespace zonestream::service

#endif  // ZONESTREAM_SERVICE_ADMISSION_SERVICE_H_
