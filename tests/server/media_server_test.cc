#include "server/media_server.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/multiclass.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "workload/size_distribution.h"

namespace zonestream::server {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> Table1Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
}

MediaServer MakeServer(int disks, int per_disk_limit, uint64_t seed = 42) {
  MediaServerConfig config;
  config.num_disks = disks;
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = per_disk_limit;
  config.seed = seed;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ZS_CHECK(server.ok());
  return *std::move(server);
}

TEST(MediaServerTest, CreateValidation) {
  MediaServerConfig config;
  config.num_disks = 0;
  config.per_disk_stream_limit = 10;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  config.num_disks = 2;
  config.round_length_s = 0.0;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = 0;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
}

TEST(MediaServerTest, AdmissionControlEnforcesLimit) {
  MediaServer server = MakeServer(2, 3);
  EXPECT_EQ(server.max_streams(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(server.OpenStream(Table1Sizes()).ok()) << i;
  }
  const auto rejected = server.OpenStream(Table1Sizes());
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.active_streams(), 6);
}

TEST(MediaServerTest, CloseFreesAdmissionSlot) {
  MediaServer server = MakeServer(1, 2);
  const auto a = server.OpenStream(Table1Sizes());
  const auto b = server.OpenStream(Table1Sizes());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(server.OpenStream(Table1Sizes()).ok());
  EXPECT_TRUE(server.CloseStream(*a).ok());
  EXPECT_TRUE(server.OpenStream(Table1Sizes()).ok());
  EXPECT_FALSE(server.CloseStream(*a).ok());  // already closed
  EXPECT_FALSE(server.CloseStream(999).ok());
}

TEST(MediaServerTest, OpenStreamRejectsNullDistribution) {
  MediaServer server = MakeServer(1, 2);
  EXPECT_FALSE(server.OpenStream(nullptr).ok());
}

TEST(MediaServerTest, RunRoundsServesEveryActiveStream) {
  MediaServer server = MakeServer(2, 13);
  std::vector<int> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(*server.OpenStream(Table1Sizes()));
  }
  server.RunRounds(50);
  EXPECT_EQ(server.current_round(), 50);
  for (int id : ids) {
    const auto stats = server.GetStreamStats(id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->rounds_served, 50);
  }
  const ServerStats stats = server.GetServerStats();
  EXPECT_EQ(stats.rounds, 50);
  EXPECT_EQ(stats.fragments_served + stats.glitches, 50 * 10);
}

TEST(MediaServerTest, UnderloadedServerHasNoGlitches) {
  MediaServer server = MakeServer(2, 13);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  }
  server.RunRounds(300);
  const ServerStats stats = server.GetServerStats();
  // 4 requests per disk per round: hopelessly under the N_max of 26.
  EXPECT_EQ(stats.glitches, 0);
}

TEST(MediaServerTest, UtilizationScalesWithLoad) {
  MediaServer light = MakeServer(1, 26, 1);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(light.OpenStream(Table1Sizes()).ok());
  light.RunRounds(200);

  MediaServer heavy = MakeServer(1, 26, 1);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(heavy.OpenStream(Table1Sizes()).ok());
  }
  heavy.RunRounds(200);

  const double light_util = light.GetServerStats().disk_utilization[0];
  const double heavy_util = heavy.GetServerStats().disk_utilization[0];
  EXPECT_LT(light_util, heavy_util);
  EXPECT_GT(heavy_util, 0.5);
  EXPECT_LT(heavy_util, 1.0);
}

TEST(MediaServerTest, LoadBalancedAcrossDisks) {
  MediaServer server = MakeServer(4, 26, 3);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  }
  server.RunRounds(100);
  const ServerStats stats = server.GetServerStats();
  ASSERT_EQ(stats.disk_utilization.size(), 4u);
  for (double util : stats.disk_utilization) {
    EXPECT_NEAR(util, stats.disk_utilization[0], 0.02);
  }
}

TEST(MediaServerTest, OverloadedServerGlitches) {
  // Ignore the model and force 40 streams onto one disk: glitches must
  // appear (the §4 simulation shows the cliff is just above 31).
  MediaServer server = MakeServer(1, 40, 5);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(server.OpenStream(Table1Sizes()).ok());
  }
  server.RunRounds(100);
  EXPECT_GT(server.GetServerStats().glitches, 0);
}

TEST(MediaServerTest, ChurnKeepsPerDiskLoadBounded) {
  // Regression: streams leaving and joining must not skew the per-round
  // disk loads above the admission limit. With naive modulo start-disk
  // assignment, churn drove individual disks past the capacity cliff and
  // produced hundreds of glitches; phase-aware admission keeps every disk
  // at or below the limit, so glitches stay at the N=24 background rate
  // (essentially zero).
  MediaServer server = MakeServer(4, 24, 17);
  numeric::Rng churn(3);
  std::vector<int> active;
  for (int round = 0; round < 400; ++round) {
    for (int arrivals = 0; arrivals < 4; ++arrivals) {
      const auto id = server.OpenStream(Table1Sizes());
      if (id.ok()) active.push_back(*id);
    }
    for (size_t i = 0; i < active.size();) {
      if (churn.Uniform01() < 0.01) {
        ASSERT_TRUE(server.CloseStream(active[i]).ok());
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }
    server.RunRound();
  }
  const ServerStats stats = server.GetServerStats();
  EXPECT_GT(stats.fragments_served, 30000);
  EXPECT_LT(stats.glitches, 10);
}

TEST(MediaServerTest, StreamStatsNotFoundForUnknownId) {
  MediaServer server = MakeServer(1, 2);
  EXPECT_FALSE(server.GetStreamStats(5).ok());
}

TEST(MediaServerObservabilityTest, AdmissionAndRoundMetrics) {
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  MediaServerConfig config;
  config.num_disks = 2;
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = 3;
  config.metrics = &registry;
  config.trace = &trace;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());

  std::vector<int> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = server->OpenStream(Table1Sizes());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_FALSE(server->OpenStream(Table1Sizes()).ok());
  EXPECT_EQ(registry.GetCounter("server.admission.accepted")->value(), 6);
  EXPECT_EQ(registry.GetCounter("server.admission.rejected")->value(), 1);
  EXPECT_DOUBLE_EQ(registry.GetGauge("server.active_streams")->value(), 6.0);

  server->RunRounds(10);
  EXPECT_EQ(registry.GetCounter("server.rounds")->value(), 10);
  // Every round serves every stream exactly once across the disks.
  EXPECT_EQ(registry.GetCounter("server.requests")->value(), 6 * 10);
  EXPECT_EQ(
      registry.GetHistogram("server.disk.service_time_s")->count(),
      2 * 10);  // one sample per (round, disk)

  ASSERT_TRUE(server->CloseStream(ids[0]).ok());
  EXPECT_EQ(registry.GetCounter("server.streams.closed")->value(), 1);
  EXPECT_DOUBLE_EQ(registry.GetGauge("server.active_streams")->value(), 5.0);

  // One trace event per (round, disk), source_id = disk index.
  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u * 10u);
  int64_t requests = 0;
  for (const obs::RoundTraceEvent& event : events) {
    EXPECT_GE(event.source_id, 0);
    EXPECT_LT(event.source_id, 2);
    EXPECT_GE(event.service_time_s, 0.0);
    requests += event.num_requests;
  }
  EXPECT_EQ(requests, 6 * 10);
}

TEST(MediaServerObservabilityTest, NullHooksDoNotChangeBehavior) {
  obs::Registry registry;
  MediaServerConfig config;
  config.num_disks = 2;
  config.per_disk_stream_limit = 5;
  config.seed = 77;
  config.metrics = &registry;
  auto wired = MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(wired.ok());
  MediaServer bare = MakeServer(2, 5, 77);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wired->OpenStream(Table1Sizes()).ok());
    ASSERT_TRUE(bare.OpenStream(Table1Sizes()).ok());
  }
  wired->RunRounds(20);
  bare.RunRounds(20);
  const ServerStats a = wired->GetServerStats();
  const ServerStats b = bare.GetServerStats();
  EXPECT_EQ(a.fragments_served, b.fragments_served);
  EXPECT_EQ(a.glitches, b.glitches);
  ASSERT_EQ(a.disk_utilization.size(), b.disk_utilization.size());
  for (size_t d = 0; d < a.disk_utilization.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.disk_utilization[d], b.disk_utilization[d]);
  }
}

// ---------------------------------------------------------------------------
// Fault injection, retry/drop policy, and graceful degradation

// The exact moments used by the clean-path goldens (variance 1e10 ==
// Table1Sizes, but pinned separately so a Table1 change cannot silently
// move the golden).
std::shared_ptr<const workload::GammaSizeDistribution> GoldenSizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
}

TEST(MediaServerGoldenTest, CleanPathServerStatsArePinned) {
  // Bit-level golden of the clean serving path: per-round batched draws
  // (positions, then fragment sizes, then rotations) served through the
  // shared SCAN kernel. EXPECT_EQ on the double is deliberate — any drift
  // in draw order or arithmetic is a regression.
  MediaServer server = MakeServer(3, 25, 777);
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(server.OpenStream(GoldenSizes()).ok()) << i;
  }
  server.RunRounds(200);
  const ServerStats stats = server.GetServerStats();
  EXPECT_EQ(stats.rounds, 200);
  EXPECT_EQ(stats.fragments_served, 14000);
  EXPECT_EQ(stats.glitches, 0);
  double util_sum = 0.0;
  for (double util : stats.disk_utilization) util_sum += util;
  EXPECT_EQ(util_sum, 2.0820563480770842);
}

TEST(MediaServerFaultTest, CreateRejectsBadFaultConfig) {
  MediaServerConfig config;
  config.num_disks = 2;
  config.per_disk_stream_limit = 5;
  config.fault_disk = 2;  // out of range
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  config.fault_disk = -1;
  config.max_fragment_retries = -1;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  config.max_fragment_retries = 0;
  fault::MarkovSlowdownSpec bad;
  bad.enter_per_round = -0.1;  // model validation must propagate
  config.faults.slowdowns.push_back(bad);
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
}

TEST(MediaServerFaultTest, RetryThenDropFollowsTheBudget) {
  // A permanently failed single disk glitches the lone stream's fragment
  // every round, so the retry ledger is fully deterministic: with a
  // budget of 2 the cycle is retry, retry, drop.
  obs::Registry registry;
  MediaServerConfig config;
  config.num_disks = 1;
  config.per_disk_stream_limit = 5;
  config.max_fragment_retries = 2;
  config.metrics = &registry;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 0;  // fail immediately, never repair
  config.faults.disk_failures.push_back(failure);
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  const auto id = server->OpenStream(Table1Sizes());
  ASSERT_TRUE(id.ok());
  server->RunRounds(6);

  const ServerStats stats = server->GetServerStats();
  EXPECT_EQ(stats.glitches, 6);
  EXPECT_EQ(stats.fragments_served, 0);
  EXPECT_EQ(stats.fragments_retried, 4);
  EXPECT_EQ(stats.fragments_dropped, 2);
  const auto stream = server->GetStreamStats(*id);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->rounds_served, 6);
  EXPECT_EQ(stream->glitches, 6);
  EXPECT_EQ(stream->retries, 4);
  EXPECT_EQ(stream->drops, 2);
  EXPECT_EQ(registry.GetCounter("server.fragments.retried")->value(), 4);
  EXPECT_EQ(registry.GetCounter("server.fragments.dropped")->value(), 2);
  EXPECT_EQ(
      registry.GetCounter("server.fault.disk0.disk_failed_rounds")->value(),
      6);
}

TEST(MediaServerFaultTest, RetryBudgetResetsPerFragment) {
  // Regression: the retry ledger used to reset only on a *drop*, so a
  // fragment that glitched, was retried, and then served successfully
  // left retry_attempts charged against the stream. The next outage —
  // possibly hours later, on a different fragment — then burned through
  // a budget it never used. Two separated one-round outages with a
  // budget of 1 expose it: the buggy ledger retries once and drops the
  // second fragment; the correct one retries both and drops nothing.
  MediaServerConfig config;
  config.num_disks = 1;
  config.per_disk_stream_limit = 5;
  config.max_fragment_retries = 1;
  fault::DiskFailureSpec first;
  first.fail_at_round = 0;
  first.repair_after_rounds = 1;  // outage round 0 only
  fault::DiskFailureSpec second;
  second.fail_at_round = 3;
  second.repair_after_rounds = 1;  // outage round 3 only
  config.faults.disk_failures.push_back(first);
  config.faults.disk_failures.push_back(second);
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  const auto id = server->OpenStream(Table1Sizes());
  ASSERT_TRUE(id.ok());
  // Round 0: glitch -> retry. Round 1: retry served. Round 2: fresh
  // fragment (ledger must reset here). Round 3: glitch -> retry again.
  // Round 4: retry served. Round 5: fresh fragment served.
  server->RunRounds(6);
  const ServerStats stats = server->GetServerStats();
  EXPECT_EQ(stats.glitches, 2);
  EXPECT_EQ(stats.fragments_retried, 2);
  EXPECT_EQ(stats.fragments_dropped, 0);
  EXPECT_EQ(stats.fragments_served, 4);
  const auto stream = server->GetStreamStats(*id);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->retries, 2);
  EXPECT_EQ(stream->drops, 0);
}

TEST(MediaServerFaultTest, ZeroRetryBudgetKeepsHistoricalDropBehavior) {
  MediaServerConfig config;
  config.num_disks = 1;
  config.per_disk_stream_limit = 5;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 0;
  config.faults.disk_failures.push_back(failure);
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->OpenStream(Table1Sizes()).ok());
  server->RunRounds(4);
  const ServerStats stats = server->GetServerStats();
  EXPECT_EQ(stats.glitches, 4);
  EXPECT_EQ(stats.fragments_retried, 0);
  EXPECT_EQ(stats.fragments_dropped, 0);
}

TEST(MediaServerFaultTest, TargetedDiskFailureOnlyHurtsThatDisk) {
  // fault_disk = 0 with a deterministic outage on rounds [2, 5): only
  // disk 0's batches glitch, disk 1 keeps serving, and the trace marks
  // exactly the failed (round, disk) events.
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  MediaServerConfig config;
  config.num_disks = 2;
  config.per_disk_stream_limit = 5;
  config.fault_disk = 0;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 2;
  failure.repair_after_rounds = 3;
  config.faults.disk_failures.push_back(failure);
  config.metrics = &registry;
  config.trace = &trace;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->OpenStream(Table1Sizes()).ok());
  }
  server->RunRounds(10);

  // 2 streams hit the failed disk on each of the 3 outage rounds.
  const ServerStats stats = server->GetServerStats();
  EXPECT_EQ(stats.glitches, 2 * 3);
  EXPECT_EQ(stats.fragments_served, 4 * 10 - 2 * 3);
  EXPECT_EQ(
      registry.GetCounter("server.fault.disk0.disk_failed_rounds")->value(),
      3);
  EXPECT_EQ(
      registry.GetCounter("server.fault.disk1.disk_failed_rounds")->value(),
      0);

  int failed_events = 0;
  for (const obs::RoundTraceEvent& event : trace.Snapshot()) {
    if (event.source_id != 0) {
      EXPECT_FALSE(event.disk_failed) << event.round;
      continue;
    }
    const bool in_outage = event.round >= 2 && event.round < 5;
    EXPECT_EQ(event.disk_failed, in_outage) << event.round;
    if (!in_outage) continue;
    ++failed_events;
    EXPECT_EQ(event.glitches, event.num_requests);
    EXPECT_EQ(event.truncated_requests, event.num_requests);
    EXPECT_DOUBLE_EQ(event.service_time_s, 0.0);
    EXPECT_DOUBLE_EQ(event.leftover_s, 1.0);
  }
  EXPECT_EQ(failed_events, 3);
}

TEST(MediaServerDegradationTest, ShedsLowestClassNewestFirst) {
  // A hook pinning the re-armored target to 4 makes the trip shed
  // exactly 2 streams; the victims must be the two newest class-0
  // streams, never the class-1 ones.
  MediaServerConfig config;
  config.num_disks = 1;
  config.per_disk_stream_limit = 10;
  fault::MarkovSlowdownSpec slow;
  slow.per_request_probability = 1.0;
  slow.delay_min_s = 0.2;
  slow.delay_max_s = 0.2;
  slow.force_from_round = 0;
  slow.force_until_round = int64_t{1} << 30;
  config.faults.slowdowns.push_back(slow);
  fault::DegradationPolicy policy;
  policy.glitch_rate_bound = 1e-3;
  policy.window_rounds = 5;
  policy.trigger_windows = 1;
  policy.max_shed_fraction = 0.5;
  policy.rearmor = [](const fault::WindowSummary&) { return 4; };
  config.degradation = policy;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  std::vector<int> premium, best_effort;
  for (int i = 0; i < 3; ++i) {
    premium.push_back(*server->OpenStream(Table1Sizes(), /*priority_class=*/1));
  }
  for (int i = 0; i < 3; ++i) {
    best_effort.push_back(*server->OpenStream(Table1Sizes()));
  }
  server->RunRounds(5);  // exactly one (violating) window

  EXPECT_EQ(server->degradation_state(), fault::DegradationState::kDegraded);
  EXPECT_EQ(server->GetServerStats().streams_shed, 2);
  EXPECT_EQ(server->active_streams(), 4);
  // Victims: the two newest best-effort streams. The oldest best-effort
  // stream and every premium stream survive.
  EXPECT_FALSE(server->GetStreamStats(best_effort[2]).ok());
  EXPECT_FALSE(server->GetStreamStats(best_effort[1]).ok());
  EXPECT_TRUE(server->GetStreamStats(best_effort[0]).ok());
  for (int id : premium) EXPECT_TRUE(server->GetStreamStats(id).ok());
}

TEST(MediaServerDegradationTest, SlowdownEpochTripsShedsAndRecovers) {
  // The ISSUE's acceptance scenario: a Markov slowdown epoch strikes
  // mid-run, the controller trips and sheds until the measured glitch
  // rate is back under the defended bound, admissions close while
  // degraded, and after the epoch the server recovers to kNormal with
  // admissions open.
  obs::Registry registry;
  MediaServerConfig config;
  config.num_disks = 1;
  config.per_disk_stream_limit = 30;
  config.seed = 11;
  config.metrics = &registry;
  fault::MarkovSlowdownSpec slow;
  slow.per_request_probability = 1.0;
  slow.delay_min_s = 0.05;
  slow.delay_max_s = 0.05;
  slow.force_from_round = 60;
  slow.force_until_round = 120;
  config.faults.slowdowns.push_back(slow);
  fault::DegradationPolicy policy;
  policy.glitch_rate_bound = 0.02;
  policy.window_rounds = 10;
  policy.trigger_windows = 2;
  policy.recovery_windows = 2;
  policy.recovery_margin = 0.5;
  policy.min_streams = 4;
  policy.max_shed_fraction = 0.5;
  config.degradation = policy;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(server->OpenStream(Table1Sizes()).ok()) << i;
  }

  bool saw_closed_admissions = false;
  bool rejected_while_degraded = false;
  int64_t glitches_at_200 = 0;
  int active_at_200 = 0;
  for (int round = 0; round < 300; ++round) {
    server->RunRound();
    if (!server->admissions_open() && !saw_closed_admissions) {
      saw_closed_admissions = true;
      const auto refused = server->OpenStream(Table1Sizes());
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(),
                common::StatusCode::kResourceExhausted);
      rejected_while_degraded = true;
    }
    if (round == 199) {
      glitches_at_200 = server->GetServerStats().glitches;
      active_at_200 = server->active_streams();
    }
  }

  // Before the epoch: clean. During: the controller tripped and shed.
  const ServerStats stats = server->GetServerStats();
  EXPECT_GT(stats.glitches, 0);
  EXPECT_GT(stats.streams_shed, 0);
  EXPECT_LT(server->active_streams(), 25);
  EXPECT_GE(server->active_streams(), policy.min_streams);
  EXPECT_TRUE(saw_closed_admissions);
  EXPECT_TRUE(rejected_while_degraded);
  EXPECT_GE(
      registry.GetCounter("server.admission.rejected_degraded")->value(), 1);

  // The event log shows a trip into kDegraded during the epoch window.
  bool tripped_in_epoch = false;
  for (const fault::DegradationEvent& event : server->degradation_events()) {
    if (event.to == fault::DegradationState::kDegraded && event.round >= 60 &&
        event.round <= 140) {
      tripped_in_epoch = true;
      EXPECT_GT(event.window_glitch_rate, policy.glitch_rate_bound);
    }
  }
  EXPECT_TRUE(tripped_in_epoch);

  // After the epoch and the shed, service is back under the bound and
  // the hysteresis has walked the controller home.
  EXPECT_EQ(server->degradation_state(), fault::DegradationState::kNormal);
  EXPECT_TRUE(server->admissions_open());
  const double late_glitch_rate =
      static_cast<double>(stats.glitches - glitches_at_200) /
      (100.0 * active_at_200);
  EXPECT_LE(late_glitch_rate, policy.glitch_rate_bound);
}

TEST(MediaServerFaultTest, InertFaultConfigKeepsStatsBitIdentical) {
  // A configured-but-never-firing model must not perturb the serving
  // path: the request stream and fault substreams are independent.
  MediaServerConfig config;
  config.num_disks = 2;
  config.per_disk_stream_limit = 13;
  config.seed = 99;
  fault::MarkovSlowdownSpec inert;
  inert.enter_per_round = 0.0;
  inert.exit_per_round = 1.0;
  inert.per_request_probability = 1.0;
  inert.delay_min_s = 0.05;
  inert.delay_max_s = 0.5;
  config.faults.slowdowns.push_back(inert);
  auto faulty = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(faulty.ok());
  MediaServer clean = MakeServer(2, 13, 99);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(faulty->OpenStream(Table1Sizes()).ok());
    ASSERT_TRUE(clean.OpenStream(Table1Sizes()).ok());
  }
  faulty->RunRounds(60);
  clean.RunRounds(60);
  const ServerStats a = faulty->GetServerStats();
  const ServerStats b = clean.GetServerStats();
  EXPECT_EQ(a.fragments_served, b.fragments_served);
  EXPECT_EQ(a.glitches, b.glitches);
  ASSERT_EQ(a.disk_utilization.size(), b.disk_utilization.size());
  for (size_t d = 0; d < a.disk_utilization.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.disk_utilization[d], b.disk_utilization[d]);
  }
}

// --------------------------------------------------------------------------
// Class mode (MediaServerConfig::class_model): per-phase admission against
// the multi-class late-probability transform (extension X1).

std::shared_ptr<const core::MultiClassServiceModel> VideoAudioModel() {
  auto model = core::MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      {{"video", 200e3, 100e3 * 100e3}, {"audio", 16e3, 4e3 * 4e3}});
  ZS_CHECK(model.ok());
  return std::make_shared<core::MultiClassServiceModel>(*std::move(model));
}

MediaServerConfig ClassConfig(int disks, uint64_t seed = 42,
                              double delta = 0.01) {
  MediaServerConfig config;
  config.num_disks = disks;
  config.round_length_s = 1.0;
  // Far above what the class test admits, so the mix is what binds.
  config.per_disk_stream_limit = 1000;
  config.seed = seed;
  config.class_model = VideoAudioModel();
  config.class_late_tolerance = delta;
  return config;
}

MediaServer MakeClassServer(int disks, uint64_t seed = 42,
                            double delta = 0.01) {
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(),
                                    ClassConfig(disks, seed, delta));
  ZS_CHECK(server.ok());
  return *std::move(server);
}

TEST(MultiClassServerTest, CreateValidation) {
  // Opening by class needs a class model; a class-mode server opens by
  // class only.
  MediaServer plain = MakeServer(1, 10);
  EXPECT_FALSE(plain.OpenStream(/*stream_class=*/0).ok());
  MediaServer classy = MakeClassServer(1);
  EXPECT_FALSE(classy.OpenStream(Table1Sizes()).ok());
  MediaServerConfig config = ClassConfig(1);
  config.num_disks = 0;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  config.num_disks = 1;
  config.class_late_tolerance = 0.0;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
  config.class_late_tolerance = 1.0;
  EXPECT_FALSE(MediaServer::Create(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), config)
                   .ok());
}

TEST(MultiClassServerTest, RejectsUnknownClass) {
  MediaServer server = MakeClassServer(1);
  EXPECT_FALSE(server.OpenStream(-1).ok());
  EXPECT_FALSE(server.OpenStream(2).ok());
}

TEST(MultiClassServerTest, SingleDiskVideoCapacityMatchesModel) {
  // Pure video on one disk: admission must stop at the model's solo
  // capacity (26 at 1%).
  MediaServer server = MakeClassServer(1);
  int admitted = 0;
  while (server.OpenStream(/*stream_class=*/0).ok()) ++admitted;
  EXPECT_EQ(admitted, 26);
}

TEST(MultiClassServerTest, AudioFitsAfterVideoRejection) {
  // Once video is full, lighter audio streams still fit (the frontier is
  // not a simple stream count).
  MediaServer server = MakeClassServer(1);
  while (server.OpenStream(0).ok()) {
  }
  EXPECT_TRUE(server.OpenStream(1).ok());
  EXPECT_TRUE(server.OpenStream(1).ok());
}

TEST(MultiClassServerTest, MixedAdmissionBalancesPhases) {
  MediaServer server = MakeClassServer(4, 7);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(server.OpenStream(i % 2).ok());
  }
  // 20 video + 20 audio over 4 phases: each phase holds ~5 of each.
  for (int p = 0; p < 4; ++p) {
    const core::ClassCounts& mix = server.phase_mix(p);
    EXPECT_EQ(mix[0] + mix[1], 10);
  }
  EXPECT_EQ(server.active_streams_of_class(0), 20);
  EXPECT_EQ(server.active_streams_of_class(1), 20);
}

TEST(MultiClassServerTest, CloseFreesCapacityForClass) {
  MediaServer server = MakeClassServer(1);
  std::vector<int> videos;
  while (true) {
    auto id = server.OpenStream(0);
    if (!id.ok()) break;
    videos.push_back(*id);
  }
  ASSERT_TRUE(server.CloseStream(videos.back()).ok());
  EXPECT_TRUE(server.OpenStream(0).ok());
}

TEST(MultiClassServerTest, AdmittedMixDeliversQoS) {
  // Fill a 2-disk server with an alternating mix and run 600 rounds: the
  // per-phase admission keeps every disk within the 1% tolerance, so the
  // overall glitch rate stays well under it.
  MediaServer server = MakeClassServer(2, 11);
  int cls = 0;
  while (server.OpenStream(cls).ok()) cls = 1 - cls;
  ASSERT_GT(server.active_streams(), 30);
  server.RunRounds(600);
  const ServerStats stats = server.GetServerStats();
  const double glitch_rate =
      static_cast<double>(stats.glitches) /
      (stats.fragments_served + stats.glitches);
  EXPECT_LT(glitch_rate, 0.01);
  EXPECT_GT(stats.fragments_served, 0);
}

TEST(MultiClassServerTest, StrictToleranceAdmitsFewer) {
  MediaServer loose = MakeClassServer(1, 3, 0.05);
  MediaServer strict = MakeClassServer(1, 3, 0.0001);
  int loose_count = 0;
  while (loose.OpenStream(0).ok()) ++loose_count;
  int strict_count = 0;
  while (strict.OpenStream(0).ok()) ++strict_count;
  EXPECT_GT(loose_count, strict_count);
}

TEST(MultiClassServerTest, StreamStatsTracked) {
  MediaServer server = MakeClassServer(1, 5);
  const auto id = server.OpenStream(1);
  ASSERT_TRUE(id.ok());
  server.RunRounds(20);
  const auto stats = server.GetStreamStats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rounds_served, 20);
  EXPECT_FALSE(server.GetStreamStats(999).ok());
}

TEST(MultiClassServerTest, CountLimitStillBinds) {
  // The class test rides on top of the per-phase count limit: with room
  // for 26 solo videos by the model, a limit of 5 per disk admits 10 on
  // two disks, and a close frees exactly one slot.
  MediaServerConfig config = ClassConfig(2);
  config.per_disk_stream_limit = 5;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ASSERT_TRUE(server.ok());
  std::vector<int> ids;
  while (true) {
    auto id = server->OpenStream(0);
    if (!id.ok()) {
      EXPECT_EQ(id.status().code(), common::StatusCode::kResourceExhausted);
      break;
    }
    ids.push_back(*id);
  }
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(server->phase_mix(0)[0], 5);
  EXPECT_EQ(server->phase_mix(1)[0], 5);
  ASSERT_TRUE(server->CloseStream(ids.front()).ok());
  EXPECT_TRUE(server->OpenStream(1).ok());
  EXPECT_FALSE(server->OpenStream(1).ok());
}

}  // namespace
}  // namespace zonestream::server
