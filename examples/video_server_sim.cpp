// End-to-end video-server scenario (the news-on-demand workload of the
// paper's introduction):
//
//  1. synthesize MPEG-like VBR "videos" and fragment them into
//     uniform-display-time fragments (§2.1),
//  2. measure the fragment statistics the admission control consumes
//     (§2.3 "workload statistics are fed into the admission control"),
//  3. derive the admission limit from the analytic model,
//  4. run a striped multi-disk MediaServer at that limit for 20 minutes of
//     simulated time with stream churn (viewers joining/leaving), and
//  5. report the per-stream QoS actually delivered vs the contract.
//
// With --metrics-out=FILE, the run is instrumented with the observability
// layer and the final registry snapshot is written to FILE as JSON (see
// docs/OBSERVABILITY.md for the schema and metric names).
//
// Fault injection and graceful degradation (docs/FAULTS.md):
//   --fault=SPEC         inject faults, e.g.
//                        "slowdown:enter=0.01,exit=0.2,delay_max=0.05"
//   --fault-disk=D       apply the spec to disk D only (default: all)
//   --degrade=BOUND      defend this per-round glitch-rate bound by
//                        shedding streams when it is violated
//   --retries=R          re-issue deadline-cut fragments up to R times
//
// Rare-event analysis (docs/PERFORMANCE.md, "Variance reduction"):
//   --rare-event=SPEC    instead of simulating, estimate the deep-tail
//                        p_error for this content library by importance
//                        sampling, e.g. "streams=30,rounds=20000,reps=8"
//                        (streams defaults to the derived admission
//                        limit; see sim/rare_event_spec.h for all keys)
//
// Crash-safe checkpointing and deterministic resume (docs/RECOVERY.md):
//   --rounds=N           simulate N rounds (default 1200)
//   --checkpoint-every=K write a snapshot every K rounds
//   --checkpoint-dir=DIR directory for snapshot files (default ".")
//   --resume-from=PATH   resume from a snapshot file, or from the newest
//                        good snapshot in a checkpoint directory
//   --replay-verify      instead of one run, prove the checkpoint round-
//                        trips: run the scenario twice (fresh vs resumed
//                        from a mid-run snapshot) and require bit-identical
//                        trace events and metrics
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/table_printer.h"
#include "core/admission.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "disk/presets.h"
#include "fault/degradation.h"
#include "fault/fault_spec.h"
#include "numeric/random.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "recovery/checkpoint.h"
#include "recovery/replay.h"
#include "recovery/snapshot.h"
#include "server/media_server.h"
#include "sim/importance_sampling.h"
#include "sim/rare_event_spec.h"
#include "workload/fragmentation.h"
#include "workload/size_distribution.h"
#include "workload/vbr_trace.h"

using namespace zonestream;  // example code; libraries never do this

namespace {

// App-private snapshot section holding the churn loop's own state (the
// library snapshots the server; the viewer arrival/departure process
// lives out here and must survive a crash too for bit-identical resume).
constexpr char kChurnSection[] = "app.video_server_sim";
constexpr uint32_t kChurnSectionVersion = 1;

struct ChurnState {
  numeric::Rng rng{5};
  std::vector<int> active;
  int64_t rejected = 0;
  int64_t finished_streams = 0;
  int64_t finished_glitches = 0;
  int64_t next_round = 0;  // first round not yet simulated
};

std::string EncodeChurnState(const ChurnState& churn) {
  common::BlobWriter out;
  out.PutU32(kChurnSectionVersion);
  out.PutString(churn.rng.SaveState());
  out.PutI64(churn.next_round);
  out.PutU64(churn.active.size());
  for (int id : churn.active) out.PutI64(id);
  out.PutI64(churn.rejected);
  out.PutI64(churn.finished_streams);
  out.PutI64(churn.finished_glitches);
  return out.Release();
}

common::Status DecodeChurnState(const std::string& payload,
                                ChurnState* out) {
  common::BlobReader in(payload);
  const uint32_t version = in.TakeU32();
  if (in.ok() && version != kChurnSectionVersion) {
    return common::Status::InvalidArgument(
        "unsupported video_server_sim churn-state version " +
        std::to_string(version));
  }
  ChurnState churn;
  const std::string rng_state = in.TakeString();
  churn.next_round = in.TakeI64();
  const uint64_t count = in.TakeU64();
  if (!in.ok() || count > in.remaining() / 8) {
    return common::Status::InvalidArgument(
        "video_server_sim churn state is truncated");
  }
  churn.active.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    churn.active.push_back(static_cast<int>(in.TakeI64()));
  }
  churn.rejected = in.TakeI64();
  churn.finished_streams = in.TakeI64();
  churn.finished_glitches = in.TakeI64();
  if (!in.AtEnd() || churn.next_round < 0 || churn.rejected < 0 ||
      churn.finished_streams < 0 || churn.finished_glitches < 0) {
    return common::Status::InvalidArgument(
        "malformed video_server_sim churn state");
  }
  if (auto status = churn.rng.LoadState(rng_state); !status.ok()) {
    return status;
  }
  *out = std::move(churn);
  return common::Status::Ok();
}

recovery::Snapshot MakeSnapshot(const server::MediaServer& server,
                                const obs::Registry* registry,
                                const ChurnState& churn, uint64_t seed) {
  recovery::Snapshot snapshot;
  snapshot.meta.round = churn.next_round;
  snapshot.meta.base_seed = seed;
  snapshot.meta.producer = "video_server_sim";
  snapshot.server = server.ExportState();
  if (registry != nullptr) snapshot.registry = registry->ExportState();
  snapshot.app_sections[kChurnSection] = EncodeChurnState(churn);
  return snapshot;
}

common::Status RestoreFromSnapshot(
    const recovery::Snapshot& snapshot,
    const std::shared_ptr<const workload::SizeDistribution>& sizes,
    server::MediaServer* server, obs::Registry* registry,
    ChurnState* churn) {
  if (!snapshot.server.has_value()) {
    return common::Status::InvalidArgument(
        "snapshot has no server section (not a video_server_sim snapshot?)");
  }
  const auto app = snapshot.app_sections.find(kChurnSection);
  if (app == snapshot.app_sections.end()) {
    return common::Status::InvalidArgument(
        "snapshot has no '" + std::string(kChurnSection) + "' section");
  }
  ChurnState restored;
  if (auto status = DecodeChurnState(app->second, &restored); !status.ok()) {
    return status;
  }
  // Every stream in this scenario draws from the one shared library-wide
  // size distribution, so the resolver ignores the per-stream state.
  if (auto status = server->RestoreState(
          *snapshot.server,
          [&sizes](const server::StreamSnapshotState&) { return sizes; });
      !status.ok()) {
    return status;
  }
  if (registry != nullptr && snapshot.registry.has_value()) {
    if (auto status = registry->ImportState(*snapshot.registry);
        !status.ok()) {
      return status;
    }
  }
  *churn = std::move(restored);
  return common::Status::Ok();
}

// Simulates rounds [churn->next_round, total_rounds): viewers join at ~6
// per round until the server is full and leave with probability 1/1200
// per round (20-minute mean sessions). Optionally writes a checkpoint
// every `checkpoint_every` rounds and/or captures an in-memory snapshot
// just before round `capture_at_round` (for --replay-verify).
common::Status RunChurnRounds(
    server::MediaServer* server, ChurnState* churn,
    const std::shared_ptr<const workload::SizeDistribution>& sizes,
    int64_t total_rounds, const obs::Registry* registry, uint64_t seed,
    recovery::CheckpointWriter* writer, int64_t checkpoint_every,
    int64_t capture_at_round, recovery::Snapshot* captured) {
  for (int64_t round = churn->next_round; round < total_rounds; ++round) {
    if (captured != nullptr && round == capture_at_round) {
      *captured = MakeSnapshot(*server, registry, *churn, seed);
    }
    for (int arrivals = 0; arrivals < 6; ++arrivals) {
      auto id = server->OpenStream(sizes);
      if (id.ok()) {
        churn->active.push_back(*id);
      } else {
        ++churn->rejected;
      }
    }
    for (size_t i = 0; i < churn->active.size();) {
      if (churn->rng.Uniform01() < 1.0 / 1200.0) {
        const auto stats = server->GetStreamStats(churn->active[i]);
        if (stats.ok()) {
          ++churn->finished_streams;
          churn->finished_glitches += stats->glitches;
        }
        (void)server->CloseStream(churn->active[i]);
        churn->active[i] = churn->active.back();
        churn->active.pop_back();
      } else {
        ++i;
      }
    }
    server->RunRound();
    churn->next_round = round + 1;
    if (writer != nullptr && checkpoint_every > 0 &&
        churn->next_round % checkpoint_every == 0) {
      auto path = writer->Write(MakeSnapshot(*server, registry, *churn, seed));
      if (!path.ok()) return path.status();
    }
  }
  return common::Status::Ok();
}

// --replay-verify: run the configured scenario fresh (capturing a
// snapshot at the halfway round), then again resumed from that snapshot
// after a round-trip through the wire encoding, and demand bit-identical
// trace tails and final metric registries.
int RunReplayVerify(const disk::DiskGeometry& viking,
                    const disk::SeekTimeModel& seek,
                    const server::MediaServerConfig& base_config,
                    const std::shared_ptr<const workload::SizeDistribution>&
                        sizes,
                    int64_t total_rounds) {
  const int64_t capture_round = total_rounds / 2;
  const auto run = [&](const recovery::Snapshot* resume_from)
      -> common::StatusOr<recovery::ReplayArtifacts> {
    obs::Registry registry;
    obs::RoundTraceRecorder trace;
    server::MediaServerConfig config = base_config;
    config.metrics = &registry;
    config.trace = &trace;
    auto server = server::MediaServer::Create(viking, seek, config);
    if (!server.ok()) return server.status();
    ChurnState churn;
    recovery::ReplayArtifacts artifacts;
    if (resume_from != nullptr) {
      if (auto status = RestoreFromSnapshot(*resume_from, sizes, &*server,
                                            &registry, &churn);
          !status.ok()) {
        return status;
      }
    }
    // Each round appends exactly one trace event per disk, so the tail
    // (events after the capture round) starts at a known index.
    const size_t tail_start =
        resume_from != nullptr
            ? 0
            : static_cast<size_t>(capture_round) *
                  static_cast<size_t>(config.num_disks);
    if (auto status = RunChurnRounds(
            &*server, &churn, sizes, total_rounds, &registry, config.seed,
            /*writer=*/nullptr, /*checkpoint_every=*/0,
            resume_from == nullptr ? capture_round : -1,
            resume_from == nullptr ? &artifacts.snapshot : nullptr);
        !status.ok()) {
      return status;
    }
    const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
    artifacts.tail_events.assign(events.begin() + tail_start, events.end());
    artifacts.final_registry = registry.ExportState();
    return artifacts;
  };
  const auto status = recovery::VerifyReplay(
      [&run] { return run(nullptr); },
      [&run](const recovery::Snapshot& snapshot) { return run(&snapshot); });
  if (!status.ok()) {
    std::fprintf(stderr, "replay-verify FAILED: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf(
      "replay-verify PASSED: snapshot at round %lld of %lld resumes "
      "bit-identically (trace events and metrics match exactly)\n",
      static_cast<long long>(capture_round),
      static_cast<long long>(total_rounds));
  return 0;
}

// --rare-event=SPEC: instead of running the churn simulation, estimate
// the deep-tail p_error of this content library's workload by importance
// sampling (sim/importance_sampling.h) and compare it with the analytic
// bound the admission decision was based on. This answers "how much
// headroom does the derived limit actually have" — the analytic bound is
// conservative, and the naive simulation cannot see probabilities below
// ~1/lifetimes.
int RunRareEvent(const disk::DiskGeometry& viking,
                 const disk::SeekTimeModel& seek,
                 const core::ServiceTimeModel& model,
                 const std::shared_ptr<const workload::SizeDistribution>&
                     sizes,
                 double round_length, int per_disk_limit,
                 const sim::RareEventSpec& spec) {
  const int streams = spec.streams > 0 ? spec.streams : per_disk_limit;
  const core::GlitchModel glitch_model(&model);
  const double analytic = glitch_model.ErrorBound(
      streams, round_length, spec.lifetime_rounds, spec.tolerated_glitches);

  sim::SimulatorConfig config;
  config.round_length_s = round_length;
  sim::ReplicationOptions replication;
  replication.replications = spec.replications;
  replication.base_seed = spec.base_seed;
  const auto estimate = sim::EstimateErrorProbabilityIS(
      viking, seek, streams, sizes, config, spec.lifetime_rounds,
      spec.tolerated_glitches, spec.rounds_per_replication, replication,
      spec.options);
  if (!estimate.ok()) {
    std::fprintf(stderr, "--rare-event: %s\n",
                 estimate.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nRare-event analysis (%s):\n"
      "  P[>=%d glitches in %d rounds] at N=%d streams/disk\n"
      "  analytic bound     %.3e\n"
      "  IS estimate        %.3e  [%.3e, %.3e] at %.0f%% confidence\n"
      "  per-round glitch p %.3e  (theta* = %.2f, ESS %.0f of %lld "
      "rounds, E[w] = %.3f)\n",
      FormatRareEventSpec(spec).c_str(), spec.tolerated_glitches,
      spec.lifetime_rounds, streams, analytic, estimate->point,
      estimate->ci_lower, estimate->ci_upper,
      100.0 * spec.options.confidence, estimate->glitch.point,
      estimate->glitch.theta, estimate->glitch.ess,
      static_cast<long long>(estimate->glitch.rounds),
      estimate->glitch.weight_mean);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string fault_text;
  std::string checkpoint_dir;
  std::string resume_from;
  std::string rare_event_text;
  bool rare_event = false;
  int fault_disk = -1;
  double degrade_bound = -1.0;
  int retries = 0;
  bool parity = false;
  int repair_throttle = 0;
  int64_t repair_stripes = 5000;
  int64_t total_rounds = 1200;
  int64_t checkpoint_every = 0;
  bool replay_verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--fault=", 8) == 0) {
      fault_text = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--fault-disk=", 13) == 0) {
      fault_disk = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--degrade=", 10) == 0) {
      degrade_bound = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      retries = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--parity") == 0) {
      parity = true;
    } else if (std::strncmp(argv[i], "--repair-throttle=", 18) == 0) {
      repair_throttle = std::atoi(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--repair-stripes=", 17) == 0) {
      repair_stripes = std::atoll(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      total_rounds = std::atoll(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--checkpoint-every=", 19) == 0) {
      checkpoint_every = std::atoll(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      checkpoint_dir = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--resume-from=", 14) == 0) {
      resume_from = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--replay-verify") == 0) {
      replay_verify = true;
    } else if (std::strncmp(argv[i], "--rare-event=", 13) == 0) {
      rare_event_text = argv[i] + 13;
      rare_event = true;
    } else if (std::strcmp(argv[i], "--rare-event") == 0) {
      rare_event = true;  // empty spec: all defaults
    } else {
      std::fprintf(stderr,
                   "usage: %s [--metrics-out=FILE] [--fault=SPEC] "
                   "[--fault-disk=D] [--degrade=BOUND] [--retries=R]\n"
                   "          [--parity] [--repair-throttle=T] "
                   "[--repair-stripes=S]\n"
                   "          [--rounds=N] [--checkpoint-every=K] "
                   "[--checkpoint-dir=DIR]\n"
                   "          [--resume-from=FILE|DIR] [--replay-verify] "
                   "[--rare-event[=SPEC]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (total_rounds <= 0) {
    std::fprintf(stderr, "--rounds must be positive\n");
    return 2;
  }
  // --- 1. Content preparation -------------------------------------------
  workload::VbrTraceConfig trace_config;
  trace_config.mean_bandwidth_bps = 200e3;   // ~1.6 Mbit/s MPEG-2 video
  trace_config.bandwidth_stddev_bps = 95e3;
  trace_config.scene_correlation = 0.9;
  auto generator = workload::VbrTraceGenerator::Create(trace_config, 2024);
  if (!generator.ok()) return 1;

  std::vector<workload::Fragment> all_fragments;
  const double round_length = 1.0;
  for (int video = 0; video < 20; ++video) {
    const workload::BandwidthProfile profile =
        generator->Generate(/*duration_s=*/600.0);  // 10-minute clips
    auto fragments = workload::FragmentObject(profile, round_length);
    if (!fragments.ok()) return 1;
    all_fragments.insert(all_fragments.end(), fragments->begin(),
                         fragments->end());
  }

  // --- 2. Workload statistics -------------------------------------------
  const workload::FragmentMoments moments =
      workload::MeasureFragmentMoments(all_fragments);
  std::printf(
      "Content library: %lld fragments, mean %.1f KB, stddev %.1f KB\n",
      static_cast<long long>(moments.count), moments.mean_bytes / 1e3,
      std::sqrt(moments.variance_bytes2) / 1e3);

  // --- 3. Admission limit from the analytic model ------------------------
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      viking, seek, moments.mean_bytes, moments.variance_bytes2);
  if (!model.ok()) return 1;
  const int rounds_per_stream = 1200;  // 20-minute viewing sessions
  const int tolerated_glitches = 12;   // 1% of rounds
  const int per_disk_limit = core::MaxStreamsByGlitchRate(
      *model, round_length, rounds_per_stream, tolerated_glitches, 0.01);
  std::printf(
      "Admission model: <=%d streams/disk keep P[>%d glitches in %d "
      "rounds] under 1%%\n",
      per_disk_limit, tolerated_glitches, rounds_per_stream);

  if (rare_event) {
    auto spec = sim::ParseRareEventSpec(rare_event_text);
    if (!spec.ok()) {
      std::fprintf(stderr, "--rare-event: %s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    const std::shared_ptr<const workload::SizeDistribution> rare_sizes =
        std::make_shared<workload::GammaSizeDistribution>(
            *workload::GammaSizeDistribution::Create(
                moments.mean_bytes, moments.variance_bytes2));
    return RunRareEvent(viking, seek, *model, rare_sizes, round_length,
                        per_disk_limit, *spec);
  }

  // --- 4. Run the striped server with churn ------------------------------
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  server::MediaServerConfig server_config;
  server_config.num_disks = 4;
  server_config.round_length_s = round_length;
  server_config.per_disk_stream_limit = per_disk_limit;
  server_config.seed = 99;
  if (!metrics_out.empty()) {
    server_config.metrics = &registry;
    server_config.trace = &trace;
  }
  if (!fault_text.empty()) {
    auto spec = fault::ParseFaultSpec(fault_text);
    if (!spec.ok()) {
      std::fprintf(stderr, "--fault: %s\n",
                   spec.status().message().c_str());
      return 2;
    }
    server_config.faults = *spec;
    server_config.fault_disk = fault_disk;
    std::printf("Fault injection: %s (disk %s)\n",
                fault::FormatFaultSpec(server_config.faults).c_str(),
                fault_disk < 0 ? "all" : std::to_string(fault_disk).c_str());
  }
  if (degrade_bound > 0.0) {
    fault::DegradationPolicy policy;
    policy.glitch_rate_bound = degrade_bound;
    policy.window_rounds = 20;
    policy.trigger_windows = 2;
    policy.recovery_windows = 3;
    server_config.degradation = policy;
    std::printf("Degradation controller armed: bound %.4g/stream-round\n",
                degrade_bound);
  }
  server_config.max_fragment_retries = retries;
  if (repair_throttle > 0 && !parity) {
    std::fprintf(stderr, "--repair-throttle requires --parity\n");
    return 2;
  }
  if (parity) {
    server_config.parity = true;
    std::printf(
        "Parity striping: RAID-5 over %d disks, %d data phases, capacity "
        "%d streams\n",
        server_config.num_disks, server_config.num_disks - 1,
        (server_config.num_disks - 1) * per_disk_limit);
    if (repair_throttle > 0) {
      server::RepairPolicy repair;
      repair.throttle_per_round = repair_throttle;
      repair.total_stripes = repair_stripes;
      repair.read_bytes = moments.mean_bytes;
      server_config.repair = repair;
      // Hold degraded service to the bound that still meets the QoS
      // contract while each survivor absorbs reconstruction fan-out plus
      // the repair throttle share (§3.2 with 2N + R requests per disk).
      auto degraded_limit = server::MediaServer::PlanDegradedLimit(
          viking, seek, moments.mean_bytes, moments.variance_bytes2,
          round_length, 0.01, repair);
      if (!degraded_limit.ok()) {
        std::fprintf(stderr, "--repair-throttle: %s\n",
                     degraded_limit.status().ToString().c_str());
        return 2;
      }
      server_config.degraded_per_disk_stream_limit = *degraded_limit;
      std::printf(
          "Repair: %d stripes/round onto the spare (%lld stripes total), "
          "degraded admission <=%d streams/disk\n",
          repair_throttle, static_cast<long long>(repair_stripes),
          *degraded_limit);
    }
  }

  const std::shared_ptr<const workload::SizeDistribution> sizes =
      std::make_shared<workload::GammaSizeDistribution>(
          *workload::GammaSizeDistribution::Create(moments.mean_bytes,
                                                   moments.variance_bytes2));

  if (replay_verify) {
    return RunReplayVerify(viking, seek, server_config, sizes, total_rounds);
  }

  auto server = server::MediaServer::Create(viking, seek, server_config);
  if (!server.ok()) return 1;

  ChurnState churn;
  if (!resume_from.empty()) {
    // A directory means "newest good snapshot in it"; anything else is
    // taken as a snapshot file path.
    common::StatusOr<recovery::Snapshot> snapshot =
        common::Status::InvalidArgument("unset");
    auto listing = recovery::ListSnapshotFiles(resume_from);
    if (listing.ok()) {
      auto loaded = recovery::LoadLatestGoodSnapshot(resume_from);
      if (!loaded.ok()) {
        std::fprintf(stderr, "--resume-from: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      for (const std::string& warning : loaded->rejected) {
        std::fprintf(stderr, "--resume-from: skipped corrupt snapshot: %s\n",
                     warning.c_str());
      }
      std::printf("Resuming from %s\n", loaded->path.c_str());
      snapshot = std::move(loaded->snapshot);
    } else {
      snapshot = recovery::LoadSnapshotFile(resume_from);
      if (!snapshot.ok()) {
        std::fprintf(stderr, "--resume-from: %s\n",
                     snapshot.status().ToString().c_str());
        return 1;
      }
      std::printf("Resuming from %s\n", resume_from.c_str());
    }
    if (auto status = RestoreFromSnapshot(
            *snapshot, sizes, &*server,
            metrics_out.empty() ? nullptr : &registry, &churn);
        !status.ok()) {
      std::fprintf(stderr, "--resume-from: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Restored state at round %lld (%zu active streams)\n",
                static_cast<long long>(churn.next_round),
                churn.active.size());
    if (churn.next_round >= total_rounds) {
      std::fprintf(stderr,
                   "snapshot is already at round %lld; nothing to resume "
                   "(use --rounds to extend the run)\n",
                   static_cast<long long>(churn.next_round));
      return 2;
    }
  }

  std::unique_ptr<recovery::CheckpointWriter> writer;
  if (checkpoint_every > 0) {
    recovery::CheckpointWriterOptions options;
    options.directory = checkpoint_dir.empty() ? "." : checkpoint_dir;
    auto created = recovery::CheckpointWriter::Create(options);
    if (!created.ok()) {
      std::fprintf(stderr, "--checkpoint-dir: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    writer = std::make_unique<recovery::CheckpointWriter>(
        std::move(*created));
    std::printf("Checkpointing every %lld rounds to %s\n",
                static_cast<long long>(checkpoint_every),
                options.directory.c_str());
  }

  if (auto status = RunChurnRounds(
          &*server, &churn, sizes, total_rounds,
          metrics_out.empty() ? nullptr : &registry, server_config.seed,
          writer.get(), checkpoint_every, /*capture_at_round=*/-1,
          /*captured=*/nullptr);
      !status.ok()) {
    std::fprintf(stderr, "checkpoint write failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // --- 5. Delivered QoS ---------------------------------------------------
  const server::ServerStats stats = server->GetServerStats();
  std::printf(
      "\nAfter %lld rounds: %d active streams (cap %d), %lld arrivals "
      "rejected by admission control\n",
      static_cast<long long>(stats.rounds), server->active_streams(),
      server->max_streams(), static_cast<long long>(churn.rejected));
  std::printf("Fragments served: %lld, glitches: %lld (rate %.5f%%)\n",
              static_cast<long long>(stats.fragments_served),
              static_cast<long long>(stats.glitches),
              100.0 * stats.glitches /
                  std::max<int64_t>(1, stats.fragments_served +
                                           stats.glitches));

  common::TablePrinter util("Per-disk utilization (busy fraction)");
  util.SetHeader({"disk", "utilization"});
  for (size_t d = 0; d < stats.disk_utilization.size(); ++d) {
    util.AddRow({std::to_string(d),
                 common::FormatFixed(stats.disk_utilization[d], 3)});
  }
  util.Print();

  // QoS contract check over streams still active at the end.
  int worst_glitches = 0;
  int violators = 0;
  for (int id : churn.active) {
    const auto stream_stats = server->GetStreamStats(id);
    if (!stream_stats.ok()) continue;
    worst_glitches = std::max<int>(worst_glitches,
                                   static_cast<int>(stream_stats->glitches));
    if (stream_stats->glitches >= tolerated_glitches) ++violators;
  }
  std::printf(
      "\nQoS: worst active stream saw %d glitches (contract: <%d); %d of "
      "%zu active streams violated the contract; %lld finished streams "
      "accumulated %lld glitches.\n",
      worst_glitches, tolerated_glitches, violators, churn.active.size(),
      static_cast<long long>(churn.finished_streams),
      static_cast<long long>(churn.finished_glitches));

  if (parity) {
    std::printf(
        "\nParity/repair: %lld fragments reconstructed via degraded "
        "reads, %lld rounds degraded, %lld stripes rebuilt",
        static_cast<long long>(stats.reconstructed_fragments),
        static_cast<long long>(stats.rounds_degraded),
        static_cast<long long>(stats.repair_stripes_rebuilt));
    if (server->rebuild_active()) {
      std::printf(" (rebuild of disk %d still running)\n",
                  server->rebuild_target_disk());
    } else if (stats.repair_stripes_rebuilt > 0) {
      std::printf(" (disk %d restored onto its spare)\n",
                  server->rebuild_target_disk());
    } else {
      std::printf("\n");
    }
  }

  const std::vector<fault::DegradationEvent> degradation_events =
      server->degradation_events();
  if (!fault_text.empty() || degrade_bound > 0.0 || retries > 0) {
    std::printf(
        "\nDegradation: final state %s, %lld streams shed, %lld fragments "
        "retried, %lld dropped, admissions %s\n",
        fault::DegradationStateName(server->degradation_state()),
        static_cast<long long>(stats.streams_shed),
        static_cast<long long>(stats.fragments_retried),
        static_cast<long long>(stats.fragments_dropped),
        server->admissions_open() ? "open" : "closed");
    for (const fault::DegradationEvent& event : degradation_events) {
      std::printf("  round %lld: %s -> %s (shed %d, window rate %.5f)\n",
                  static_cast<long long>(event.round),
                  fault::DegradationStateName(event.from),
                  fault::DegradationStateName(event.to), event.shed_streams,
                  event.window_glitch_rate);
    }
  }

  if (!metrics_out.empty()) {
    std::string degradation_json = "[";
    for (size_t i = 0; i < degradation_events.size(); ++i) {
      const fault::DegradationEvent& event = degradation_events[i];
      if (i > 0) degradation_json += ",";
      degradation_json +=
          "{\"round\":" + std::to_string(event.round) + ",\"from\":\"" +
          fault::DegradationStateName(event.from) + "\",\"to\":\"" +
          fault::DegradationStateName(event.to) +
          "\",\"shed_streams\":" + std::to_string(event.shed_streams) +
          ",\"window_glitch_rate\":" +
          std::to_string(event.window_glitch_rate) + "}";
    }
    degradation_json += "]";
    const std::string json = "{\"schema\":\"zonestream-metrics-v1\","
                             "\"degradation_events\":" + degradation_json +
                             ",\"metrics\":" +
                             obs::RegistryToJson(registry.Snapshot()) + "}\n";
    std::FILE* f = std::fopen(metrics_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nWrote %zu metrics-snapshot bytes (%zu trace events "
                "recorded) to %s\n",
                json.size(), trace.size(), metrics_out.c_str());
  }
  return 0;
}
