#include "service/admission_service.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/admission.h"
#include "obs/metrics.h"

namespace zonestream::service {
namespace {

AdmissionServiceConfig ThreeClassConfig(obs::Registry* metrics = nullptr) {
  AdmissionServiceConfig config;
  config.classes = {{"gold", 0.001}, {"silver", 0.01}, {"bronze", 0.05}};
  config.registry.shards = 4;
  config.registry.capacity = 4096;
  config.metrics = metrics;
  return config;
}

std::unique_ptr<AdmissionService> MakeService(
    obs::Registry* metrics = nullptr) {
  auto service = AdmissionService::Create(ThreeClassConfig(metrics));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

core::AdmissionTable TestTable() {
  auto table = core::AdmissionTable::Deserialize(
      "zonestream-admission-table v1\n"
      "criterion late_probability\n"
      "round_length 1\n"
      "rows 3\n"
      "0.001 8\n"
      "0.01 14\n"
      "0.05 20\n");
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *table;
}

TEST(AdmissionServiceCreateTest, RejectsBadConfigs) {
  AdmissionServiceConfig config;
  EXPECT_FALSE(AdmissionService::Create(config).ok());  // no classes

  config = ThreeClassConfig();
  config.classes[1].tolerance = 0.001;  // not strictly ascending
  EXPECT_FALSE(AdmissionService::Create(config).ok());

  config = ThreeClassConfig();
  config.classes[0].tolerance = 0.0;  // outside (0, 1)
  EXPECT_FALSE(AdmissionService::Create(config).ok());

  config = ThreeClassConfig();
  config.classes[0].name = "Gold!";  // not metric-safe
  EXPECT_FALSE(AdmissionService::Create(config).ok());

  config = ThreeClassConfig();
  config.limit_scale = 0;
  EXPECT_FALSE(AdmissionService::Create(config).ok());
}

TEST(AdmissionServiceTest, AdmitWithoutLimitsRejectsOnCapacity) {
  auto service = MakeService();
  const ServiceOutcome outcome = service->Admit(0, 0);
  EXPECT_EQ(outcome.result, ServiceResult::kRejectedCapacity);
  EXPECT_EQ(outcome.limit, 0);
}

TEST(AdmissionServiceTest, PublishLimitsThenAdmitTeardown) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({2, 3, 4}).ok());

  const ServiceOutcome first = service->Admit(0, 0);
  ASSERT_EQ(first.result, ServiceResult::kOk);
  EXPECT_GE(first.session_id, 1u);
  EXPECT_EQ(first.class_index, 0u);
  EXPECT_EQ(first.occupancy, 1);
  EXPECT_EQ(first.limit, 2);

  const ServiceOutcome second = service->Admit(0, 0);
  ASSERT_EQ(second.result, ServiceResult::kOk);
  EXPECT_NE(second.session_id, first.session_id);
  EXPECT_EQ(second.occupancy, 2);

  // Class 0 is full now.
  const ServiceOutcome third = service->Admit(0, 0);
  EXPECT_EQ(third.result, ServiceResult::kRejectedCapacity);
  EXPECT_EQ(third.occupancy, 2);

  const ServiceOutcome torn = service->Teardown(first.session_id);
  ASSERT_EQ(torn.result, ServiceResult::kOk);
  EXPECT_EQ(torn.occupancy, 1);
  EXPECT_EQ(service->Admit(0, 0).result, ServiceResult::kOk);
}

TEST(AdmissionServiceTest, ExplicitSessionIdsAndDuplicates) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({10, 10, 10}).ok());
  EXPECT_EQ(service->Admit(100, 1).result, ServiceResult::kOk);
  const ServiceOutcome duplicate = service->Admit(100, 2);
  EXPECT_EQ(duplicate.result, ServiceResult::kDuplicate);
  // The duplicate's occupancy reservation was rolled back.
  EXPECT_EQ(service->occupancy(2), 0);
  EXPECT_EQ(service->occupancy(1), 1);
  // Auto-assigned ids never collide with explicit ones.
  const ServiceOutcome assigned = service->Admit(0, 1);
  EXPECT_EQ(assigned.result, ServiceResult::kOk);
  EXPECT_NE(assigned.session_id, 100u);
}

TEST(AdmissionServiceTest, UnknownClassAndInvalidSession) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({10, 10, 10}).ok());
  EXPECT_EQ(service->Admit(0, 3).result, ServiceResult::kUnknownClass);
  EXPECT_EQ(service->Teardown(12345).result, ServiceResult::kNotFound);
  EXPECT_EQ(service->Transition(12345, 0).result, ServiceResult::kNotFound);
}

// The `>=` boundary contract on the tolerance-resolution path: a request
// exactly equal to a class tolerance selects that class, at both ends.
TEST(AdmissionServiceTest, AdmitByToleranceBoundaryContract) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({10, 10, 10}).ok());

  // Exactly the strictest class tolerance -> class 0, not a reject.
  ServiceOutcome outcome = service->AdmitByTolerance(0, 0.001);
  ASSERT_EQ(outcome.result, ServiceResult::kOk);
  EXPECT_EQ(outcome.class_index, 0u);

  // Strictly below every class -> kUnknownClass.
  outcome = service->AdmitByTolerance(0, 0.000999);
  EXPECT_EQ(outcome.result, ServiceResult::kUnknownClass);

  // Exactly the loosest class tolerance -> class 2.
  outcome = service->AdmitByTolerance(0, 0.05);
  ASSERT_EQ(outcome.result, ServiceResult::kOk);
  EXPECT_EQ(outcome.class_index, 2u);

  // Above the loosest -> still class 2 (loosest satisfying class).
  outcome = service->AdmitByTolerance(0, 0.9);
  ASSERT_EQ(outcome.result, ServiceResult::kOk);
  EXPECT_EQ(outcome.class_index, 2u);

  // Between classes -> the largest class tolerance <= request.
  outcome = service->AdmitByTolerance(0, 0.02);
  ASSERT_EQ(outcome.result, ServiceResult::kOk);
  EXPECT_EQ(outcome.class_index, 1u);

  // NaN satisfies no class (every `<=` comparison is false), matching
  // the core AdmissionTable/Snapshot sentinel for NaN tolerances — a
  // malformed wire value must not admit into the loosest class.
  outcome =
      service->AdmitByTolerance(0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(outcome.result, ServiceResult::kUnknownClass);
}

TEST(AdmissionServiceTest, PublishTableScalesClassLimits) {
  auto service = MakeService();
  service->PublishTable(TestTable());
  const ServiceStats stats = service->Stats();
  ASSERT_EQ(stats.classes.size(), 3u);
  // Each class limit = MaxStreams(class tolerance) * scale (scale = 1).
  EXPECT_EQ(stats.classes[0].limit, 8);
  EXPECT_EQ(stats.classes[1].limit, 14);
  EXPECT_EQ(stats.classes[2].limit, 20);
  EXPECT_EQ(stats.table_rows, 3u);
  EXPECT_EQ(stats.limits_version, 1u);

  // Republish with a larger scale (e.g. a 4-disk deployment).
  service->PublishScale(4);
  const ServiceStats scaled = service->Stats();
  EXPECT_EQ(scaled.classes[0].limit, 32);
  EXPECT_EQ(scaled.classes[1].limit, 56);
  EXPECT_EQ(scaled.classes[2].limit, 80);
  EXPECT_EQ(scaled.limit_scale, 4);
  EXPECT_EQ(scaled.limits_version, 2u);
}

TEST(AdmissionServiceTest, PublishLimitsValidates) {
  auto service = MakeService();
  EXPECT_FALSE(service->PublishLimits({1, 2}).ok());      // size mismatch
  EXPECT_FALSE(service->PublishLimits({1, -2, 3}).ok());  // negative
  EXPECT_TRUE(service->PublishLimits({1, 2, 3}).ok());
}

TEST(AdmissionServiceTest, TransitionMovesOccupancy) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({1, 1, 1}).ok());
  const ServiceOutcome admitted = service->Admit(0, 0);
  ASSERT_EQ(admitted.result, ServiceResult::kOk);

  const ServiceOutcome moved = service->Transition(admitted.session_id, 1);
  ASSERT_EQ(moved.result, ServiceResult::kOk);
  EXPECT_EQ(moved.class_index, 1u);
  EXPECT_EQ(service->occupancy(0), 0);
  EXPECT_EQ(service->occupancy(1), 1);

  // Transition into a full class fails and leaves the session where it
  // was.
  ASSERT_EQ(service->Admit(0, 2).result, ServiceResult::kOk);
  const ServiceOutcome blocked =
      service->Transition(admitted.session_id, 2);
  EXPECT_EQ(blocked.result, ServiceResult::kRejectedCapacity);
  EXPECT_EQ(service->occupancy(1), 1);
  EXPECT_EQ(service->occupancy(2), 1);

  // Self-transition is a no-op success (never drops the slot).
  const ServiceOutcome same = service->Transition(admitted.session_id, 1);
  EXPECT_EQ(same.result, ServiceResult::kOk);
  EXPECT_EQ(service->occupancy(1), 1);
}

TEST(AdmissionServiceTest, ReconcileReportsZeroDriftUnderCorrectUse) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({100, 100, 100}).ok());
  std::vector<uint64_t> sessions;
  for (int i = 0; i < 50; ++i) {
    const ServiceOutcome outcome =
        service->Admit(0, static_cast<uint32_t>(i % 3));
    ASSERT_EQ(outcome.result, ServiceResult::kOk);
    sessions.push_back(outcome.session_id);
  }
  for (size_t i = 0; i < sessions.size(); i += 2) {
    ASSERT_EQ(service->Teardown(sessions[i]).result, ServiceResult::kOk);
  }
  const ReconcileReport report = service->ReconcileOccupancy();
  EXPECT_EQ(report.total_drift, 0);
  int64_t counted = 0;
  for (const int64_t c : report.counted) counted += c;
  EXPECT_EQ(counted, 25);
}

TEST(AdmissionServiceTest, ExportRestoreDigestBitIdentity) {
  auto service = MakeService();
  service->PublishTable(TestTable());
  service->PublishScale(4);
  std::vector<uint64_t> sessions;
  for (int i = 0; i < 40; ++i) {
    const ServiceOutcome outcome =
        service->Admit(0, static_cast<uint32_t>(i % 3));
    ASSERT_EQ(outcome.result, ServiceResult::kOk);
    sessions.push_back(outcome.session_id);
  }
  for (size_t i = 0; i < sessions.size(); i += 3) {
    ASSERT_EQ(service->Teardown(sessions[i]).result, ServiceResult::kOk);
  }
  const uint64_t digest = service->Digest();
  const AdmissionServiceState state = service->ExportState();

  auto restored = MakeService();
  ASSERT_TRUE(restored->RestoreState(state).ok());
  EXPECT_EQ(restored->Digest(), digest);

  // The restored service behaves identically: same stats, same next id.
  const ServiceStats before = service->Stats();
  const ServiceStats after = restored->Stats();
  EXPECT_EQ(before.live_sessions, after.live_sessions);
  EXPECT_EQ(before.limits_version, after.limits_version);
  EXPECT_EQ(before.limit_scale, after.limit_scale);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(before.classes[i].occupancy, after.classes[i].occupancy);
    EXPECT_EQ(before.classes[i].limit, after.classes[i].limit);
  }
  const ServiceOutcome a = service->Admit(0, 0);
  const ServiceOutcome b = restored->Admit(0, 0);
  ASSERT_EQ(a.result, ServiceResult::kOk);
  ASSERT_EQ(b.result, ServiceResult::kOk);
  EXPECT_EQ(a.session_id, b.session_id);
}

TEST(AdmissionServiceTest, StateCodecRoundTripsAndRejectsGarbage) {
  auto service = MakeService();
  service->PublishTable(TestTable());
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(service->Admit(0, static_cast<uint32_t>(i % 3)).result,
              ServiceResult::kOk);
  }
  const AdmissionServiceState state = service->ExportState();
  const std::string encoded = EncodeAdmissionServiceState(state);
  const auto decoded = DecodeAdmissionServiceState(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeAdmissionServiceState(*decoded), encoded);
  EXPECT_EQ(AdmissionServiceStateDigest(*decoded), service->Digest());

  // Truncations and bit flips must decode to clean errors.
  for (size_t cut = 0; cut < encoded.size(); cut += 7) {
    (void)DecodeAdmissionServiceState(
        std::string_view(encoded.data(), cut));
  }
  for (size_t flip = 0; flip < encoded.size(); flip += 11) {
    std::string mutated = encoded;
    mutated[flip] = static_cast<char>(mutated[flip] ^ 0x40);
    (void)DecodeAdmissionServiceState(mutated);  // must not crash
  }
}

TEST(AdmissionServiceTest, RestoreRejectsNonAscendingSessions) {
  auto service = MakeService();
  AdmissionServiceState state;
  state.class_limits = {1, 2, 3};
  state.sessions = {{5, 0, 0}, {4, 0, 1}};  // descending ids
  EXPECT_FALSE(service->RestoreState(state).ok());
}

TEST(AdmissionServiceTest, RestoreRequiresEmptyService) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({5, 5, 5}).ok());
  ASSERT_EQ(service->Admit(0, 0).result, ServiceResult::kOk);
  AdmissionServiceState state;
  state.class_limits = {1, 2, 3};
  EXPECT_FALSE(service->RestoreState(state).ok());
}

TEST(AdmissionServiceMetricsTest, CountersGaugesAndHistogramFlow) {
  obs::Registry registry;
  auto service = MakeService(&registry);
  ASSERT_TRUE(service->PublishLimits({2, 2, 2}).ok());

  ASSERT_EQ(service->Admit(0, 0).result, ServiceResult::kOk);
  ASSERT_EQ(service->Admit(0, 0).result, ServiceResult::kOk);
  EXPECT_EQ(service->Admit(0, 0).result,
            ServiceResult::kRejectedCapacity);
  // The histogram is live; the flush only refreshes the gauges.
  EXPECT_EQ(registry.GetHistogram("service.admit.latency_s")->count(), 3);
  service->FlushObservability();

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const auto counter = [&](const std::string& name) -> int64_t {
    for (const auto& [key, value] : snapshot.counters) {
      if (key == name) return value;
    }
    return -1;
  };
  EXPECT_EQ(counter("service.admit.requests"), 3);
  EXPECT_EQ(counter("service.admit.ok"), 2);
  EXPECT_EQ(counter("service.admit.rejected_capacity"), 1);
  EXPECT_EQ(counter("service.limits.publishes"), 1);

  const auto gauge = [&](const std::string& name) -> double {
    for (const auto& [key, value] : snapshot.gauges) {
      if (key == name) return value;
    }
    return -1.0;
  };
  EXPECT_EQ(gauge("service.sessions.live"), 2.0);
  EXPECT_EQ(gauge("service.class.gold.occupancy"), 2.0);
  EXPECT_EQ(gauge("service.class.gold.limit"), 2.0);
  EXPECT_EQ(gauge("service.limits.version"), 1.0);

  // The admit-latency histogram, which every admit records into.
  const auto latency = [&]() -> const obs::HistogramSnapshot* {
    for (const auto& [key, value] : snapshot.histograms) {
      if (key == "service.admit.latency_s") return &value;
    }
    return nullptr;
  }();
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 3);
  EXPECT_GT(latency->max, 0.0);
  EXPECT_GT(service->LatencyQuantile(0.5), 0.0);
  EXPECT_GE(service->LatencyQuantile(0.99),
            service->LatencyQuantile(0.5));

  // A second flush with no new admits must not double-count.
  service->FlushObservability();
  const obs::RegistrySnapshot again = registry.Snapshot();
  for (const auto& [key, value] : again.histograms) {
    if (key == "service.admit.latency_s") {
      EXPECT_EQ(value.count, 3);
    }
  }
}

TEST(AdmissionServiceTest, PublishIsSafeUnderConcurrentAdmits) {
  auto service = MakeService();
  ASSERT_TRUE(service->PublishLimits({1 << 20, 1 << 20, 1 << 20}).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::atomic<int64_t> cycles{0};
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const ServiceOutcome outcome =
            service->Admit(0, static_cast<uint32_t>(t));
        if (outcome.result == ServiceResult::kOk) {
          service->Teardown(outcome.session_id);
        }
        cycles.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Republish limits while admits are in flight: RCU keeps every reader
  // on a coherent snapshot.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        service
            ->PublishLimits({(1 << 20) + i, (1 << 20) + i, (1 << 20) + i})
            .ok());
  }
  // On a single-CPU host the publisher can finish before the workers are
  // first scheduled; keep publishing pressure off and let them run.
  while (cycles.load(std::memory_order_relaxed) < 3) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_GT(cycles.load(), 0);
  const ReconcileReport report = service->ReconcileOccupancy();
  EXPECT_EQ(report.total_drift, 0);
}

// The headline lock-free claim, pinned: once warmed up, the admit /
// teardown / transition fast path performs NO heap allocation. The
// global operator-new hook (alloc_counter.cc) counts every allocation on
// every thread while armed.
void ExpectSteadyStateFastPathIsAllocationFree(AdmissionService* service) {
  ASSERT_TRUE(service->PublishLimits({1024, 1024, 1024}).ok());

  // Warm-up: fault in the RCU thread-local reader cache, the registry's
  // probe paths, and any lazily-initialized runtime state.
  for (int i = 0; i < 1000; ++i) {
    const ServiceOutcome outcome =
        service->Admit(0, static_cast<uint32_t>(i % 3));
    ASSERT_EQ(outcome.result, ServiceResult::kOk);
    ASSERT_EQ(service->Transition(outcome.session_id,
                                  static_cast<uint32_t>((i + 1) % 3))
                  .result,
              ServiceResult::kOk);
    ASSERT_EQ(service->Teardown(outcome.session_id).result,
              ServiceResult::kOk);
  }

  zonestream::testing::ArmAllocCounter();
  bool clean = true;
  for (int i = 0; i < 20000 && clean; ++i) {
    const ServiceOutcome outcome =
        service->Admit(0, static_cast<uint32_t>(i % 3));
    clean = clean && outcome.result == ServiceResult::kOk;
    clean = clean && service->Transition(outcome.session_id,
                                         static_cast<uint32_t>((i + 1) % 3))
                             .result == ServiceResult::kOk;
    clean = clean &&
            service->Teardown(outcome.session_id).result == ServiceResult::kOk;
  }
  const int64_t allocations = zonestream::testing::DisarmAllocCounter();
  EXPECT_TRUE(clean);
  EXPECT_EQ(allocations, 0)
      << allocations << " heap allocations on the admit fast path";
}

TEST(AdmissionServiceAllocTest, SteadyStateFastPathIsAllocationFree) {
  auto service = MakeService();
  ExpectSteadyStateFastPathIsAllocationFree(service.get());
}

// The same with a registry attached: the path the daemon runs, where
// each admit is timed into service.admit.latency_s.
TEST(AdmissionServiceAllocTest,
     SteadyStateFastPathWithMetricsIsAllocationFree) {
  obs::Registry registry;
  auto service = MakeService(&registry);
  ExpectSteadyStateFastPathIsAllocationFree(service.get());
  EXPECT_EQ(registry.GetHistogram("service.admit.latency_s")->count(),
            1000 + 20000);
}

}  // namespace
}  // namespace zonestream::service
