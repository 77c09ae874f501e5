#include "service/admission_service.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/blob.h"
#include "common/check.h"
#include "obs/scoped_timer.h"

namespace zonestream::service {

namespace {

bool IsMetricSegment(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* ServiceResultName(ServiceResult result) {
  switch (result) {
    case ServiceResult::kOk:
      return "ok";
    case ServiceResult::kRejectedCapacity:
      return "rejected_capacity";
    case ServiceResult::kDuplicate:
      return "duplicate";
    case ServiceResult::kNotFound:
      return "not_found";
    case ServiceResult::kUnknownClass:
      return "unknown_class";
    case ServiceResult::kRegistryFull:
      return "registry_full";
    case ServiceResult::kInvalidSession:
      return "invalid_session";
  }
  return "unknown";
}

std::string EncodeAdmissionServiceState(const AdmissionServiceState& state) {
  common::BlobWriter writer;
  writer.PutU64(state.next_session_id);
  writer.PutI64(state.next_admit_seq);
  writer.PutU64(state.limits_version);
  writer.PutI64(state.limit_scale);
  writer.PutString(state.table_text);
  writer.PutU64(state.class_limits.size());
  for (int64_t limit : state.class_limits) writer.PutI64(limit);
  writer.PutU64(state.sessions.size());
  for (const SessionRecord& session : state.sessions) {
    writer.PutU64(session.session_id);
    writer.PutU32(session.class_index);
    writer.PutI64(session.admit_seq);
  }
  return writer.Release();
}

common::StatusOr<AdmissionServiceState> DecodeAdmissionServiceState(
    std::string_view bytes) {
  common::BlobReader reader(bytes);
  AdmissionServiceState state;
  state.next_session_id = reader.TakeU64();
  state.next_admit_seq = reader.TakeI64();
  state.limits_version = reader.TakeU64();
  state.limit_scale = reader.TakeI64();
  state.table_text = reader.TakeString();
  const uint64_t class_count = reader.TakeU64();
  if (!reader.ok() || class_count > reader.remaining() / 8) {
    return common::Status::InvalidArgument(
        "service state: truncated header or class count");
  }
  state.class_limits.reserve(class_count);
  for (uint64_t i = 0; i < class_count; ++i) {
    const int64_t limit = reader.TakeI64();
    if (limit < 0) {
      return common::Status::InvalidArgument(
          "service state: negative class limit");
    }
    state.class_limits.push_back(limit);
  }
  const uint64_t session_count = reader.TakeU64();
  // 20 bytes per session record; a count the payload cannot back is a
  // forged length, not a big registry.
  if (!reader.ok() || session_count > reader.remaining() / 20) {
    return common::Status::InvalidArgument(
        "service state: session count exceeds payload");
  }
  state.sessions.reserve(session_count);
  uint64_t previous_id = 0;
  for (uint64_t i = 0; i < session_count; ++i) {
    SessionRecord session;
    session.session_id = reader.TakeU64();
    session.class_index = reader.TakeU32();
    session.admit_seq = reader.TakeI64();
    if (!reader.ok()) break;
    // Canonical form: strictly ascending ids (also rules out the
    // sentinel id 0 and duplicates in one comparison).
    if (session.session_id <= previous_id ||
        session.session_id > SessionRegistry::kMaxSessionId ||
        session.class_index >= class_count || session.admit_seq < 0) {
      return common::Status::InvalidArgument(
          "service state: invalid session record " + std::to_string(i));
    }
    previous_id = session.session_id;
    state.sessions.push_back(session);
  }
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument(
        "service state: truncated or trailing bytes");
  }
  if (state.next_admit_seq < 0 || state.limit_scale < 0) {
    return common::Status::InvalidArgument(
        "service state: negative sequence or scale");
  }
  return state;
}

uint64_t AdmissionServiceStateDigest(const AdmissionServiceState& state) {
  return common::Crc64(EncodeAdmissionServiceState(state));
}

AdmissionService::AdmissionService(const AdmissionServiceConfig& config)
    : limits_(&rcu_domain_, std::make_unique<ServingLimits>()) {
  class_names_.reserve(config.classes.size());
  class_tolerances_.reserve(config.classes.size());
  for (const AdmissionClassConfig& cls : config.classes) {
    class_names_.push_back(cls.name);
    class_tolerances_.push_back(cls.tolerance);
  }
  occupancy_ = std::make_unique<PaddedCounter[]>(config.classes.size());
}

AdmissionService::~AdmissionService() = default;

common::StatusOr<std::unique_ptr<AdmissionService>> AdmissionService::Create(
    const AdmissionServiceConfig& config) {
  if (config.classes.empty()) {
    return common::Status::InvalidArgument(
        "admission service needs at least one class");
  }
  double previous = 0.0;
  for (size_t i = 0; i < config.classes.size(); ++i) {
    const AdmissionClassConfig& cls = config.classes[i];
    if (!IsMetricSegment(cls.name)) {
      return common::Status::InvalidArgument(
          "class name '" + cls.name + "' is not a metric-safe segment");
    }
    for (size_t j = 0; j < i; ++j) {
      if (config.classes[j].name == cls.name) {
        return common::Status::InvalidArgument("duplicate class name '" +
                                               cls.name + "'");
      }
    }
    if (!std::isfinite(cls.tolerance) || cls.tolerance <= previous ||
        cls.tolerance >= 1.0) {
      return common::Status::InvalidArgument(
          "class tolerances must be strictly ascending in (0, 1)");
    }
    previous = cls.tolerance;
  }
  if (config.limit_scale < 1) {
    return common::Status::InvalidArgument("limit_scale must be >= 1");
  }

  auto service =
      std::unique_ptr<AdmissionService>(new AdmissionService(config));
  auto registry = SessionRegistry::Create(config.registry);
  if (!registry.ok()) return registry.status();
  service->registry_ = std::move(registry).value();

  {
    // Initial limits: all zero until the first publish, at the given
    // scale.
    auto initial = std::make_unique<ServingLimits>();
    initial->class_limits.assign(config.classes.size(), 0);
    initial->limit_scale = config.limit_scale;
    service->limits_.Publish(std::move(initial));
  }

  if (config.metrics != nullptr) {
    obs::Registry* m = config.metrics;
    service->metrics_ = m;
    service->admit_requests_ = m->GetCounter("service.admit.requests");
    service->teardown_requests_ =
        m->GetCounter("service.teardown.requests");
    service->transition_requests_ =
        m->GetCounter("service.transition.requests");
    for (int r = 0; r < 7; ++r) {
      const std::string name = ServiceResultName(static_cast<ServiceResult>(r));
      service->admit_by_result_[r] = m->GetCounter("service.admit." + name);
      service->teardown_by_result_[r] =
          m->GetCounter("service.teardown." + name);
      service->transition_by_result_[r] =
          m->GetCounter("service.transition." + name);
    }
    service->publishes_ = m->GetCounter("service.limits.publishes");
    service->reconcile_runs_ = m->GetCounter("service.reconcile.runs");
    service->reconcile_drift_ = m->GetCounter("service.reconcile.drift");
    service->latency_histogram_ =
        m->GetHistogram("service.admit.latency_s");
    service->live_gauge_ = m->GetGauge("service.sessions.live");
    service->version_gauge_ = m->GetGauge("service.limits.version");
    service->scale_gauge_ = m->GetGauge("service.limits.scale");
    for (size_t i = 0; i < service->class_names_.size(); ++i) {
      const std::string base = "service.class." + service->class_names_[i];
      service->class_occupancy_gauges_.push_back(
          m->GetGauge(base + ".occupancy"));
      service->class_limit_gauges_.push_back(m->GetGauge(base + ".limit"));
    }
    for (int s = 0; s < service->registry_->shards(); ++s) {
      service->shard_live_gauges_.push_back(m->GetGauge(
          "service.registry.shard_" + std::to_string(s) + ".live"));
    }
  }
  return service;
}

void AdmissionService::PublishLocked(std::unique_ptr<ServingLimits> next) {
  next->version = version_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  limits_.Publish(std::move(next));
  if (publishes_ != nullptr) publishes_->Increment();
}

void AdmissionService::PublishTable(const core::AdmissionTable& table) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  auto next = std::make_unique<ServingLimits>();
  next->table = core::AdmissionTableSnapshot(table);
  next->table_text = table.Serialize();
  {
    RcuReadGuard guard(&rcu_domain_);
    next->limit_scale = limits_.Read()->limit_scale;
  }
  next->class_limits.reserve(class_tolerances_.size());
  for (double tolerance : class_tolerances_) {
    next->class_limits.push_back(
        static_cast<int64_t>(next->table.MaxStreams(tolerance)) *
        next->limit_scale);
  }
  PublishLocked(std::move(next));
}

void AdmissionService::PublishScale(int64_t limit_scale) {
  ZS_CHECK_GE(limit_scale, 1);
  std::lock_guard<std::mutex> lock(publish_mutex_);
  auto next = std::make_unique<ServingLimits>();
  {
    RcuReadGuard guard(&rcu_domain_);
    const ServingLimits* current = limits_.Read();
    next->table = current->table;
    next->table_text = current->table_text;
    next->class_limits = current->class_limits;
  }
  next->limit_scale = limit_scale;
  if (next->table.size() > 0) {
    for (size_t i = 0; i < class_tolerances_.size(); ++i) {
      next->class_limits[i] =
          static_cast<int64_t>(next->table.MaxStreams(class_tolerances_[i])) *
          limit_scale;
    }
  }
  // Without a table the limits are direct overrides; the new scale is
  // recorded but cannot rescale them.
  PublishLocked(std::move(next));
}

common::Status AdmissionService::PublishLimits(
    const std::vector<int64_t>& limits) {
  if (limits.size() != class_tolerances_.size()) {
    return common::Status::InvalidArgument(
        "limit count does not match class count");
  }
  for (int64_t limit : limits) {
    if (limit < 0) {
      return common::Status::InvalidArgument("limits must be >= 0");
    }
  }
  std::lock_guard<std::mutex> lock(publish_mutex_);
  auto next = std::make_unique<ServingLimits>();
  {
    RcuReadGuard guard(&rcu_domain_);
    next->limit_scale = limits_.Read()->limit_scale;
  }
  next->class_limits = limits;
  PublishLocked(std::move(next));
  return common::Status::Ok();
}

void AdmissionService::CountResult(ServiceResult result,
                                   obs::Counter* const* table) {
  obs::Counter* counter = table[static_cast<int>(result)];
  if (counter != nullptr) counter->Increment();
}

ServiceOutcome AdmissionService::DoAdmit(uint64_t session_id,
                                         uint32_t class_index) {
  ServiceOutcome out;
  out.session_id = session_id;
  out.class_index = class_index;
  if (class_index >= class_tolerances_.size()) {
    out.result = ServiceResult::kUnknownClass;
    return out;
  }
  if (session_id != 0 && (session_id < SessionRegistry::kMinSessionId ||
                          session_id > SessionRegistry::kMaxSessionId)) {
    out.result = ServiceResult::kInvalidSession;
    return out;
  }
  RcuReadGuard guard(&rcu_domain_);
  const ServingLimits* limits = limits_.Read();
  const int64_t limit = limits->class_limits[class_index];
  out.limit = limit;
  // Occupancy first: a capacity reject costs two relaxed atomics and
  // never touches the registry, so a flash crowd beyond the limit
  // cannot contend the session table.
  std::atomic<int64_t>& occupancy = occupancy_[class_index].value;
  int64_t current = occupancy.load(std::memory_order_relaxed);
  for (;;) {
    if (current >= limit) {
      out.result = ServiceResult::kRejectedCapacity;
      out.occupancy = current;
      return out;
    }
    if (occupancy.compare_exchange_weak(current, current + 1,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  const int64_t admit_seq =
      next_admit_seq_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    uint64_t id = session_id;
    if (id == 0) {
      id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    }
    switch (registry_->Insert(id, class_index, admit_seq)) {
      case RegistryResult::kOk:
        out.result = ServiceResult::kOk;
        out.session_id = id;
        out.occupancy = current + 1;
        return out;
      case RegistryResult::kDuplicate:
        if (session_id == 0) continue;  // auto-assign: skip the collision
        occupancy.fetch_sub(1, std::memory_order_relaxed);
        out.result = ServiceResult::kDuplicate;
        return out;
      case RegistryResult::kFull:
        occupancy.fetch_sub(1, std::memory_order_relaxed);
        out.result = ServiceResult::kRegistryFull;
        return out;
      case RegistryResult::kNotFound:
        occupancy.fetch_sub(1, std::memory_order_relaxed);
        out.result = ServiceResult::kInvalidSession;
        return out;
    }
  }
}

ServiceOutcome AdmissionService::Admit(uint64_t session_id,
                                       uint32_t class_index) {
  if (admit_requests_ != nullptr) admit_requests_->Increment();
  ServiceOutcome out;
  {
    obs::ScopedTimer timer(latency_histogram_);
    out = DoAdmit(session_id, class_index);
  }
  CountResult(out.result, admit_by_result_);
  return out;
}

ServiceOutcome AdmissionService::AdmitByTolerance(uint64_t session_id,
                                                  double tolerance) {
  // Loosest class that still satisfies the request: the largest class
  // tolerance <= `tolerance`, with equality selecting the class — the
  // same `>=` boundary contract as AdmissionTable::MaxStreams.
  size_t lo = 0;
  size_t hi = class_tolerances_.size();
  while (lo < hi) {
    const size_t mid = lo + ((hi - lo) >> 1);
    if (class_tolerances_[mid] <= tolerance) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    if (admit_requests_ != nullptr) admit_requests_->Increment();
    ServiceOutcome out;
    out.session_id = session_id;
    out.result = ServiceResult::kUnknownClass;
    CountResult(out.result, admit_by_result_);
    return out;
  }
  return Admit(session_id, static_cast<uint32_t>(lo - 1));
}

ServiceOutcome AdmissionService::Teardown(uint64_t session_id) {
  if (teardown_requests_ != nullptr) teardown_requests_->Increment();
  ServiceOutcome out;
  out.session_id = session_id;
  uint32_t class_index = 0;
  int64_t admit_seq = 0;
  switch (registry_->Erase(session_id, &class_index, &admit_seq)) {
    case RegistryResult::kOk:
      out.result = ServiceResult::kOk;
      out.class_index = class_index;
      out.occupancy =
          occupancy_[class_index].value.fetch_sub(
              1, std::memory_order_relaxed) -
          1;
      break;
    default:
      out.result = ServiceResult::kNotFound;
      break;
  }
  CountResult(out.result, teardown_by_result_);
  return out;
}

ServiceOutcome AdmissionService::Transition(uint64_t session_id,
                                            uint32_t new_class_index) {
  if (transition_requests_ != nullptr) transition_requests_->Increment();
  ServiceOutcome out;
  out.session_id = session_id;
  out.class_index = new_class_index;
  if (new_class_index >= class_tolerances_.size()) {
    out.result = ServiceResult::kUnknownClass;
    CountResult(out.result, transition_by_result_);
    return out;
  }
  RcuReadGuard guard(&rcu_domain_);
  const ServingLimits* limits = limits_.Read();
  const int64_t limit = limits->class_limits[new_class_index];
  out.limit = limit;
  // A self-transition is a no-op success: the session already holds its
  // slot, so it must not be judged against the class limit again (at a
  // full limit that would reject the very session occupying it).
  uint32_t current_class = 0;
  if (registry_->Lookup(session_id, &current_class, nullptr) !=
      RegistryResult::kOk) {
    out.result = ServiceResult::kNotFound;
    CountResult(out.result, transition_by_result_);
    return out;
  }
  if (current_class == new_class_index) {
    out.result = ServiceResult::kOk;
    out.occupancy =
        occupancy_[new_class_index].value.load(std::memory_order_relaxed);
    CountResult(out.result, transition_by_result_);
    return out;
  }
  // Admit into the new class first, then release the old slot, so the
  // session never holds zero slots and a failed transition leaves it
  // untouched in its old class.
  std::atomic<int64_t>& occupancy = occupancy_[new_class_index].value;
  int64_t current = occupancy.load(std::memory_order_relaxed);
  for (;;) {
    if (current >= limit) {
      out.result = ServiceResult::kRejectedCapacity;
      out.occupancy = current;
      CountResult(out.result, transition_by_result_);
      return out;
    }
    if (occupancy.compare_exchange_weak(current, current + 1,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  uint32_t old_class = 0;
  if (registry_->UpdateClass(session_id, new_class_index, &old_class) !=
      RegistryResult::kOk) {
    occupancy.fetch_sub(1, std::memory_order_relaxed);
    out.result = ServiceResult::kNotFound;
    CountResult(out.result, transition_by_result_);
    return out;
  }
  occupancy_[old_class].value.fetch_sub(1, std::memory_order_relaxed);
  out.result = ServiceResult::kOk;
  out.occupancy = occupancy.load(std::memory_order_relaxed);
  CountResult(out.result, transition_by_result_);
  return out;
}

ServiceStats AdmissionService::Stats() const {
  ServiceStats stats;
  stats.live_sessions = registry_->live();
  {
    RcuReadGuard guard(&rcu_domain_);
    const ServingLimits* limits = limits_.Read();
    stats.limits_version = limits->version;
    stats.limit_scale = limits->limit_scale;
    stats.table_rows = limits->table.size();
    stats.classes.reserve(class_names_.size());
    for (size_t i = 0; i < class_names_.size(); ++i) {
      ServiceClassStats cls;
      cls.name = class_names_[i];
      cls.tolerance = class_tolerances_[i];
      cls.occupancy = occupancy(i);
      cls.limit = limits->class_limits[i];
      stats.classes.push_back(std::move(cls));
    }
  }
  stats.registry = registry_->Stats();
  return stats;
}

ReconcileReport AdmissionService::ReconcileOccupancy() {
  ReconcileReport report;
  report.counted.assign(class_tolerances_.size(), 0);
  report.adjustment.assign(class_tolerances_.size(), 0);
  registry_->ForEachSession(
      [&report](uint64_t, uint32_t class_index, int64_t) {
        if (class_index < report.counted.size()) {
          ++report.counted[class_index];
        }
      });
  for (size_t i = 0; i < report.counted.size(); ++i) {
    const int64_t current =
        occupancy_[i].value.load(std::memory_order_relaxed);
    const int64_t diff = report.counted[i] - current;
    if (diff != 0) {
      occupancy_[i].value.fetch_add(diff, std::memory_order_relaxed);
      report.adjustment[i] = diff;
      report.total_drift += std::abs(diff);
    }
  }
  if (reconcile_runs_ != nullptr) reconcile_runs_->Increment();
  if (reconcile_drift_ != nullptr && report.total_drift != 0) {
    reconcile_drift_->Increment(report.total_drift);
  }
  return report;
}

void AdmissionService::FlushObservability() {
  if (metrics_ == nullptr) return;
  live_gauge_->Set(static_cast<double>(registry_->live()));
  {
    RcuReadGuard guard(&rcu_domain_);
    const ServingLimits* limits = limits_.Read();
    version_gauge_->Set(static_cast<double>(limits->version));
    scale_gauge_->Set(static_cast<double>(limits->limit_scale));
    for (size_t i = 0; i < class_occupancy_gauges_.size(); ++i) {
      class_occupancy_gauges_[i]->Set(static_cast<double>(occupancy(i)));
      class_limit_gauges_[i]->Set(
          static_cast<double>(limits->class_limits[i]));
    }
  }
  const RegistryStats registry_stats = registry_->Stats();
  for (size_t s = 0; s < shard_live_gauges_.size(); ++s) {
    shard_live_gauges_[s]->Set(
        static_cast<double>(registry_stats.shard_live[s]));
  }
}

double AdmissionService::LatencyQuantile(double q) const {
  return latency_histogram_ != nullptr
             ? latency_histogram_->ExportState().Quantile(q)
             : 0.0;
}

AdmissionServiceState AdmissionService::ExportState() const {
  AdmissionServiceState state;
  state.next_session_id =
      next_session_id_.load(std::memory_order_relaxed);
  state.next_admit_seq = next_admit_seq_.load(std::memory_order_relaxed);
  {
    RcuReadGuard guard(&rcu_domain_);
    const ServingLimits* limits = limits_.Read();
    state.limits_version = limits->version;
    state.limit_scale = limits->limit_scale;
    state.table_text = limits->table_text;
    state.class_limits = limits->class_limits;
  }
  registry_->ForEachSession([&state](uint64_t session_id,
                                     uint32_t class_index,
                                     int64_t admit_seq) {
    state.sessions.push_back({session_id, class_index, admit_seq});
  });
  // Canonical order: the encoding (and therefore the digest) must not
  // depend on hash layout.
  std::sort(state.sessions.begin(), state.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.session_id < b.session_id;
            });
  return state;
}

common::Status AdmissionService::RestoreState(
    const AdmissionServiceState& state) {
  if (registry_->live() != 0) {
    return common::Status::InvalidArgument(
        "restore requires a service with no live sessions");
  }
  if (state.class_limits.size() != class_tolerances_.size()) {
    return common::Status::InvalidArgument(
        "service state class count does not match configuration");
  }
  for (int64_t limit : state.class_limits) {
    if (limit < 0) {
      return common::Status::InvalidArgument(
          "service state has a negative class limit");
    }
  }
  if (state.limit_scale < 1) {
    return common::Status::InvalidArgument(
        "service state limit_scale must be >= 1");
  }
  auto next = std::make_unique<ServingLimits>();
  if (!state.table_text.empty()) {
    auto table = core::AdmissionTable::Deserialize(state.table_text);
    if (!table.ok()) {
      return common::Status::InvalidArgument(
          "service state table: " + table.status().message());
    }
    next->table = core::AdmissionTableSnapshot(table.value());
  }
  next->table_text = state.table_text;
  next->class_limits = state.class_limits;
  next->limit_scale = state.limit_scale;
  next->version = state.limits_version;

  uint64_t previous_id = 0;
  uint64_t max_id = 0;
  for (const SessionRecord& session : state.sessions) {
    if (session.session_id <= previous_id ||
        session.session_id < SessionRegistry::kMinSessionId ||
        session.session_id > SessionRegistry::kMaxSessionId) {
      return common::Status::InvalidArgument(
          "service state sessions must be strictly ascending valid ids");
    }
    if (session.class_index >= class_tolerances_.size()) {
      return common::Status::InvalidArgument(
          "service state session has an unknown class");
    }
    previous_id = session.session_id;
    max_id = session.session_id;
  }
  for (const SessionRecord& session : state.sessions) {
    const RegistryResult result = registry_->Insert(
        session.session_id, session.class_index, session.admit_seq);
    if (result != RegistryResult::kOk) {
      return common::Status::InvalidArgument(
          "service state session " + std::to_string(session.session_id) +
          " failed to restore: registry " +
          std::string(result == RegistryResult::kFull ? "full"
                                                      : "duplicate"));
    }
    occupancy_[session.class_index].value.fetch_add(
        1, std::memory_order_relaxed);
  }
  next_session_id_.store(std::max(state.next_session_id, max_id + 1),
                         std::memory_order_relaxed);
  next_admit_seq_.store(state.next_admit_seq, std::memory_order_relaxed);
  version_counter_.store(state.limits_version, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    limits_.Publish(std::move(next));
  }
  return common::Status::Ok();
}

uint64_t AdmissionService::Digest() const {
  return AdmissionServiceStateDigest(ExportState());
}

}  // namespace zonestream::service
