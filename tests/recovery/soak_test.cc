// Kill-and-resume soak test: a child process runs a checkpointed
// MediaServer scenario and SIGKILLs itself mid-run; the parent resumes
// from the last durable snapshot and verifies the continued run is
// bit-identical — trace events and final metric registry — to an
// uninterrupted reference run. The matrix covers {1, N} planner threads
// and {clean, fault-injected} configurations, because both the thread
// pool and the fault substreams are places where hidden state could
// break determinism.
//
// The fork happens before this process creates any thread-pool threads
// for the cell (each scenario builds and joins its own pool), so the
// child never inherits a lock held by a pool worker.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/blob.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "disk/presets.h"
#include "fault/fault_spec.h"
#include "numeric/random.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "recovery/checkpoint.h"
#include "recovery/replay.h"
#include "recovery/snapshot.h"
#include "server/array_planner.h"
#include "server/media_server.h"
#include "workload/size_distribution.h"

namespace zonestream::recovery {
namespace {

namespace fs = std::filesystem;

constexpr int kNumDisks = 2;
constexpr int kParityNumDisks = 3;  // parity-rebuild scenario width
constexpr int64_t kTotalRounds = 60;
constexpr int64_t kCheckpointEvery = 10;
constexpr int64_t kKillAtRound = 25;  // after 2 checkpoints, mid-interval
// Parity scenario: disk 0 fails for good at round 5 and the rebuild
// (1 stripe/round, 40 stripes) spans rounds 5..44 — so the SIGKILL at
// round 25 and the resume both land strictly mid-rebuild, and the tail
// still covers the spare promotion and the post-rebuild intact rounds.
constexpr int64_t kParityFailAtRound = 5;
constexpr int64_t kParityTotalStripes = 40;
constexpr char kChurnSection[] = "app.soak_test";

// Which checkpointed scenario a cell runs.
enum class Scenario {
  kClean,         // 2 disks, no faults
  kFaulted,       // 2 disks, slowdown/burst faults + degradation
  kParityRebuild  // 3-disk parity array, permanent failure + rebuild
};

int DisksFor(Scenario scenario) {
  return scenario == Scenario::kParityRebuild ? kParityNumDisks : kNumDisks;
}

const char* FaultSpecText(bool with_faults) {
  return with_faults
             ? "slowdown:enter=0.2,exit=0.3,prob=0.7,delay_max=0.2;"
               "burst:prob=0.1,len=2,delay_max=0.1"
             : "";
}

std::shared_ptr<const workload::GammaSizeDistribution> Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
}

// The admission limit comes from the parallel array planner so the
// scenario exercises the "bit-identical at every thread count" contract
// end to end: the child plans on `threads` workers, and the limit (thus
// the whole run) must not depend on that.
int PlannedPerDiskLimit(int threads, Scenario scenario) {
  common::ThreadPool pool(threads);
  server::DiskGroup group;
  group.name = "viking";
  group.disk_parameters = disk::QuantumViking2100Parameters();
  group.seek_parameters = disk::QuantumViking2100SeekParameters();
  group.count = DisksFor(scenario);
  server::ArrayQos qos;
  qos.round_length_s = 1.0;
  qos.late_tolerance = 0.01;
  auto plan = server::PlanArray({group}, 200e3, 100e3 * 100e3, qos, &pool);
  ZS_CHECK(plan.ok());
  ZS_CHECK(!plan->per_disk_limits.empty());
  return plan->per_disk_limits[0];
}

server::MediaServerConfig ScenarioConfig(int per_disk_limit,
                                         Scenario scenario,
                                         obs::Registry* registry,
                                         obs::RoundTraceRecorder* trace) {
  server::MediaServerConfig config;
  config.num_disks = DisksFor(scenario);
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = per_disk_limit;
  config.seed = 31337;
  if (scenario == Scenario::kFaulted) {
    auto spec = fault::ParseFaultSpec(FaultSpecText(true));
    ZS_CHECK(spec.ok());
    config.faults = *spec;
    fault::DegradationPolicy policy;
    policy.glitch_rate_bound = 0.05;
    policy.window_rounds = 5;
    policy.trigger_windows = 1;
    policy.recovery_windows = 2;
    config.degradation = policy;
    config.max_fragment_retries = 1;
  } else if (scenario == Scenario::kParityRebuild) {
    config.parity = true;
    fault::DiskFailureSpec failure;
    failure.fail_at_round = kParityFailAtRound;  // permanent
    config.faults.disk_failures.push_back(failure);
    config.fault_disk = 0;
    server::RepairPolicy repair;
    repair.throttle_per_round = 1;
    repair.total_stripes = kParityTotalStripes;
    repair.read_bytes = 200e3;
    config.repair = repair;
    config.degraded_per_disk_stream_limit =
        per_disk_limit > 1 ? per_disk_limit / 2 : per_disk_limit;
    config.max_fragment_retries = 1;
  }
  config.metrics = registry;
  config.trace = trace;
  return config;
}

struct ChurnState {
  numeric::Rng rng{17};
  std::vector<int> active;
  int64_t next_round = 0;
};

std::string EncodeChurn(const ChurnState& churn) {
  common::BlobWriter out;
  out.PutString(churn.rng.SaveState());
  out.PutI64(churn.next_round);
  out.PutU64(churn.active.size());
  for (int id : churn.active) out.PutI64(id);
  return out.Release();
}

common::Status DecodeChurn(const std::string& payload, ChurnState* out) {
  common::BlobReader in(payload);
  const std::string rng_state = in.TakeString();
  ChurnState churn;
  churn.next_round = in.TakeI64();
  const uint64_t count = in.TakeU64();
  if (!in.ok() || count > in.remaining() / 8) {
    return common::Status::InvalidArgument("soak churn state truncated");
  }
  for (uint64_t i = 0; i < count; ++i) {
    churn.active.push_back(static_cast<int>(in.TakeI64()));
  }
  if (!in.AtEnd() || churn.next_round < 0) {
    return common::Status::InvalidArgument("malformed soak churn state");
  }
  if (auto status = churn.rng.LoadState(rng_state); !status.ok()) {
    return status;
  }
  *out = std::move(churn);
  return common::Status::Ok();
}

Snapshot MakeSnapshot(const server::MediaServer& server,
                      const obs::Registry& registry,
                      const ChurnState& churn) {
  Snapshot snapshot;
  snapshot.meta.round = churn.next_round;
  snapshot.meta.base_seed = 31337;
  snapshot.meta.producer = "soak_test";
  snapshot.server = server.ExportState();
  snapshot.registry = registry.ExportState();
  snapshot.app_sections[kChurnSection] = EncodeChurn(churn);
  return snapshot;
}

// One churn round: two arrival attempts, then random departures —
// deterministic given the churn RNG position.
void ChurnRound(server::MediaServer* server, ChurnState* churn) {
  for (int arrivals = 0; arrivals < 2; ++arrivals) {
    auto id = server->OpenStream(Sizes());
    if (id.ok()) churn->active.push_back(*id);
  }
  for (size_t i = 0; i < churn->active.size();) {
    if (churn->rng.Uniform01() < 0.02) {
      (void)server->CloseStream(churn->active[i]);
      churn->active[i] = churn->active.back();
      churn->active.pop_back();
    } else {
      ++i;
    }
  }
}

// Child body: run the checkpointed scenario and die abruptly at
// kKillAtRound. Never returns.
[[noreturn]] void ChildRunAndDie(const std::string& dir, int threads,
                                 Scenario scenario) {
  const int limit = PlannedPerDiskLimit(threads, scenario);
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  auto server = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      ScenarioConfig(limit, scenario, &registry, &trace));
  if (!server.ok()) _exit(3);
  CheckpointWriterOptions options;
  options.directory = dir;
  auto writer = CheckpointWriter::Create(options);
  if (!writer.ok()) _exit(3);
  ChurnState churn;
  for (int64_t round = 0; round < kTotalRounds; ++round) {
    if (round == kKillAtRound) raise(SIGKILL);
    ChurnRound(&*server, &churn);
    server->RunRound();
    churn.next_round = round + 1;
    if (churn.next_round % kCheckpointEvery == 0) {
      if (!writer->Write(MakeSnapshot(*server, registry, churn)).ok()) {
        _exit(3);
      }
    }
  }
  _exit(4);  // survived past the kill round: the test will flag this
}

void KillAndResumeBitIdentical(int threads, Scenario scenario) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("zs_soak_" + std::to_string(threads) + "_" +
        std::to_string(static_cast<int>(scenario)) + "_" +
        std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // --- crash a checkpointed child mid-run ------------------------------
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    ChildRunAndDie(dir, threads, scenario);  // never returns
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "child exited instead of dying: " << wait_status;
  ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

  // --- uninterrupted reference run -------------------------------------
  const int limit = PlannedPerDiskLimit(threads, scenario);
  // The planner contract: the limit is identical at every thread count.
  ASSERT_EQ(limit, PlannedPerDiskLimit(1, scenario));
  obs::Registry reference_registry;
  obs::RoundTraceRecorder reference_trace;
  auto reference = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      ScenarioConfig(limit, scenario, &reference_registry,
                     &reference_trace));
  ASSERT_TRUE(reference.ok());
  ChurnState reference_churn;
  for (int64_t round = 0; round < kTotalRounds; ++round) {
    ChurnRound(&*reference, &reference_churn);
    reference->RunRound();
    reference_churn.next_round = round + 1;
  }

  // --- resume from the child's last durable snapshot -------------------
  auto loaded = LoadLatestGoodSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->rejected.empty());
  const int64_t restored_round = loaded->snapshot.meta.round;
  ASSERT_GT(restored_round, 0);
  ASSERT_LE(restored_round, kKillAtRound);

  obs::Registry resumed_registry;
  obs::RoundTraceRecorder resumed_trace;
  auto resumed = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      ScenarioConfig(limit, scenario, &resumed_registry,
                     &resumed_trace));
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(loaded->snapshot.server.has_value());
  auto status = resumed->RestoreState(
      *loaded->snapshot.server,
      [](const server::StreamSnapshotState&) { return Sizes(); });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(loaded->snapshot.registry.has_value());
  status = resumed_registry.ImportState(*loaded->snapshot.registry);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ChurnState resumed_churn;
  ASSERT_EQ(loaded->snapshot.app_sections.count(kChurnSection), 1u);
  status = DecodeChurn(loaded->snapshot.app_sections.at(kChurnSection),
                       &resumed_churn);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(resumed_churn.next_round, restored_round);

  for (int64_t round = restored_round; round < kTotalRounds; ++round) {
    ChurnRound(&*resumed, &resumed_churn);
    resumed->RunRound();
    resumed_churn.next_round = round + 1;
  }

  // --- bit-identical continuation --------------------------------------
  const auto all = reference_trace.Snapshot();
  const size_t tail_start =
      static_cast<size_t>(restored_round) *
      static_cast<size_t>(DisksFor(scenario));
  ASSERT_LE(tail_start, all.size());
  const std::vector<obs::RoundTraceEvent> expected(
      all.begin() + static_cast<ptrdiff_t>(tail_start), all.end());
  status = CompareTraces(expected, resumed_trace.Snapshot());
  EXPECT_TRUE(status.ok()) << status.ToString();
  status = CompareRegistries(reference_registry.ExportState(),
                             resumed_registry.ExportState());
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reference->active_streams(), resumed->active_streams());
  EXPECT_EQ(reference_churn.active, resumed_churn.active);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(KillAndResumeSoakTest, SingleThreadClean) {
  KillAndResumeBitIdentical(/*threads=*/1, Scenario::kClean);
}

TEST(KillAndResumeSoakTest, SingleThreadFaulted) {
  KillAndResumeBitIdentical(/*threads=*/1, Scenario::kFaulted);
}

TEST(KillAndResumeSoakTest, MultiThreadClean) {
  KillAndResumeBitIdentical(/*threads=*/4, Scenario::kClean);
}

TEST(KillAndResumeSoakTest, MultiThreadFaulted) {
  KillAndResumeBitIdentical(/*threads=*/4, Scenario::kFaulted);
}

// SIGKILL strikes mid-rebuild; the resume must pick the repair progress
// out of the snapshot and finish the rebuild bit-identically (including
// the spare promotion round and the intact rounds after it).
TEST(KillAndResumeSoakTest, SingleThreadParityRebuild) {
  KillAndResumeBitIdentical(/*threads=*/1, Scenario::kParityRebuild);
}

TEST(KillAndResumeSoakTest, MultiThreadParityRebuild) {
  KillAndResumeBitIdentical(/*threads=*/4, Scenario::kParityRebuild);
}

}  // namespace
}  // namespace zonestream::recovery
