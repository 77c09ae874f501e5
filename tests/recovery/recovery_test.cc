// Tests for the crash-safe checkpoint subsystem: the byte-level blob
// codecs, the zonestream-snapshot-v1 container (including every
// corruption path the format promises to reject cleanly), the durable
// CheckpointWriter with retention and fallback, and end-to-end
// bit-identical resume of RoundSimulator (both kernels) and MediaServer
// (with faults, degradation, and retries live).
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/blob.h"
#include "common/check.h"
#include "core/multiclass.h"
#include "disk/presets.h"
#include "fault/fault_spec.h"
#include "numeric/random.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "recovery/checkpoint.h"
#include "recovery/replay.h"
#include "recovery/snapshot.h"
#include "server/media_server.h"
#include "service/admission_service.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::recovery {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const workload::GammaSizeDistribution> Table1Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
}

// Fresh per-test temp directory under the build tree.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("zs_recovery_" + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Blob primitives ----------------------------------------------------

TEST(BlobTest, WriterReaderRoundtrip) {
  common::BlobWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI64(-42);
  writer.PutF64(-0.0);  // signed zero must survive by bit pattern
  writer.PutBool(true);
  writer.PutString(std::string_view("hel\0lo", 6));  // embedded NUL
  writer.PutWords({1, 2, 3});
  const std::string bytes = writer.Release();

  common::BlobReader reader(bytes);
  EXPECT_EQ(reader.TakeU8(), 7);
  EXPECT_EQ(reader.TakeU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.TakeU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.TakeI64(), -42);
  const double zero = reader.TakeF64();
  EXPECT_EQ(std::signbit(zero), true);
  EXPECT_TRUE(reader.TakeBool());
  EXPECT_EQ(reader.TakeString(), std::string("hel\0lo", 6));
  EXPECT_EQ(reader.TakeWords(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BlobTest, TruncationIsStickyAndZero) {
  common::BlobWriter writer;
  writer.PutU64(99);
  const std::string bytes = writer.Release().substr(0, 3);
  common::BlobReader reader(bytes);
  EXPECT_EQ(reader.TakeU64(), 0u);
  EXPECT_FALSE(reader.ok());
  // Every further read stays zero and failed.
  EXPECT_EQ(reader.TakeU32(), 0u);
  EXPECT_EQ(reader.TakeString(), "");
  EXPECT_FALSE(reader.AtEnd());
}

TEST(BlobTest, BoolRejectsNonCanonicalByte) {
  common::BlobWriter writer;
  writer.PutU8(2);
  common::BlobReader reader(writer.data());
  EXPECT_FALSE(reader.TakeBool());
  EXPECT_FALSE(reader.ok());
}

TEST(BlobTest, LengthClaimsCappedByRemainingBytes) {
  // A corrupt length prefix claiming 2^60 bytes must fail cleanly, not
  // attempt the allocation.
  common::BlobWriter writer;
  writer.PutU64(1ull << 60);
  writer.PutU8('x');
  common::BlobReader strings(writer.data());
  EXPECT_EQ(strings.TakeString(), "");
  EXPECT_FALSE(strings.ok());
  common::BlobReader words(writer.data());
  EXPECT_TRUE(words.TakeWords().empty());
  EXPECT_FALSE(words.ok());
}

TEST(BlobTest, Crc64MatchesCheckValue) {
  // The CRC-64/XZ check value over the standard test vector.
  EXPECT_EQ(common::Crc64("123456789"), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(common::Crc64(""), 0u);
}

// --- Snapshot container -------------------------------------------------

Snapshot MetaOnlySnapshot() {
  Snapshot snapshot;
  snapshot.meta.round = 7;
  snapshot.meta.base_seed = 0x1234;
  snapshot.meta.producer = "recovery_test";
  snapshot.app_sections["app.test"] = std::string("payload\0!", 9);
  return snapshot;
}

TEST(SnapshotTest, CheckpointRoundtripSmoke) {
  // Fast tier-1 guard against format drift: header layout and a full
  // encode/decode round trip of a small snapshot.
  const std::string bytes = EncodeSnapshot(MetaOnlySnapshot());
  ASSERT_GE(bytes.size(), 16u + 8u);
  EXPECT_EQ(std::string_view(bytes).substr(0, 8), kSnapshotMagic);
  // Version is the little-endian u32 right after the magic.
  const uint32_t version = static_cast<uint8_t>(bytes[8]) |
                           static_cast<uint32_t>(
                               static_cast<uint8_t>(bytes[9])) << 8 |
                           static_cast<uint32_t>(
                               static_cast<uint8_t>(bytes[10])) << 16 |
                           static_cast<uint32_t>(
                               static_cast<uint8_t>(bytes[11])) << 24;
  EXPECT_EQ(version, kSnapshotVersion);
  // The trailing u64 is the CRC of everything before it.
  EXPECT_EQ(common::Crc64(std::string_view(bytes).substr(0, bytes.size() - 8)),
            [&] {
              uint64_t crc = 0;
              for (int i = 7; i >= 0; --i) {
                crc = (crc << 8) |
                      static_cast<uint8_t>(bytes[bytes.size() - 8 + i]);
              }
              return crc;
            }());

  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->meta.round, 7);
  EXPECT_EQ(decoded->meta.base_seed, 0x1234u);
  EXPECT_EQ(decoded->meta.producer, "recovery_test");
  ASSERT_EQ(decoded->app_sections.count("app.test"), 1u);
  EXPECT_EQ(decoded->app_sections.at("app.test"),
            std::string("payload\0!", 9));
  EXPECT_FALSE(decoded->server.has_value());
  EXPECT_FALSE(decoded->simulator.has_value());
  EXPECT_FALSE(decoded->registry.has_value());
  EXPECT_FALSE(decoded->service.has_value());
}

service::AdmissionServiceState SampleServiceState() {
  service::AdmissionServiceState state;
  state.next_session_id = 42;
  state.next_admit_seq = 17;
  state.limits_version = 3;
  state.limit_scale = 2;
  state.table_text = "zonestream-admission-table v1\n";
  state.class_limits = {8, 14, 20};
  state.sessions = {{1, 0, 1}, {5, 1, 2}, {9, 2, 3}};
  return state;
}

// Frame an arbitrary section list as a container with a valid CRC, so
// tests can hit decode paths EncodeSnapshot never produces (garbage or
// duplicate sections).
std::string FrameSections(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  common::BlobWriter writer;
  for (char c : kSnapshotMagic) writer.PutU8(static_cast<uint8_t>(c));
  writer.PutU32(kSnapshotVersion);
  writer.PutU32(static_cast<uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    writer.PutString(name);
    writer.PutString(payload);
  }
  std::string bytes = writer.Release();
  common::BlobWriter crc;
  crc.PutU64(common::Crc64(bytes));
  return bytes + crc.data();
}

// The encoded payload of the 'meta' section from a known-good snapshot,
// for splicing into hand-framed containers.
std::string MetaSectionPayload() {
  const std::string bytes = EncodeSnapshot(MetaOnlySnapshot());
  common::BlobReader reader(std::string_view(bytes).substr(
      kSnapshotMagic.size(), bytes.size() - kSnapshotMagic.size() - 8));
  (void)reader.TakeU32();  // version
  const uint32_t sections = reader.TakeU32();
  for (uint32_t i = 0; i < sections; ++i) {
    const std::string name = reader.TakeString();
    const std::string payload = reader.TakeString();
    if (name == "meta") return payload;
  }
  ADD_FAILURE() << "no meta section in a fresh snapshot";
  return {};
}

TEST(SnapshotTest, ServiceSectionRoundtripsByDigest) {
  Snapshot snapshot = MetaOnlySnapshot();
  snapshot.service = SampleServiceState();
  const std::string bytes = EncodeSnapshot(snapshot);

  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->service.has_value());
  EXPECT_EQ(decoded->service->next_session_id, 42u);
  EXPECT_EQ(decoded->service->class_limits,
            (std::vector<int64_t>{8, 14, 20}));
  EXPECT_EQ(decoded->service->sessions.size(), 3u);
  EXPECT_EQ(service::AdmissionServiceStateDigest(*decoded->service),
            service::AdmissionServiceStateDigest(*snapshot.service));

  // The section is self-describing in the human-readable summary.
  const std::string text = DescribeSnapshot(snapshot);
  EXPECT_NE(text.find("service"), std::string::npos);
  EXPECT_NE(text.find("3 sessions"), std::string::npos);
}

TEST(SnapshotTest, RejectsCorruptServicePayload) {
  const std::string bytes = FrameSections(
      {{"meta", MetaSectionPayload()}, {"service", "not a service state"}});
  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("service"), std::string::npos);
}

TEST(SnapshotTest, RejectsDuplicateServiceSections) {
  const std::string payload =
      service::EncodeAdmissionServiceState(SampleServiceState());
  const std::string bytes = FrameSections(
      {{"meta", MetaSectionPayload()},
       {"service", payload},
       {"service", payload}});
  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("duplicate 'service'"),
            std::string::npos);
}

TEST(SnapshotTest, DescribeNamesSections) {
  const std::string text = DescribeSnapshot(MetaOnlySnapshot());
  EXPECT_NE(text.find("zonestream-snapshot-v" +
                      std::to_string(kSnapshotVersion)),
            std::string::npos);
  EXPECT_NE(text.find("recovery_test"), std::string::npos);
  EXPECT_NE(text.find("app.test"), std::string::npos);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::string bytes = EncodeSnapshot(MetaOnlySnapshot());
  bytes[0] = 'X';
  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, RejectsWrongVersionWithSpecificError) {
  // Craft containers with an old or unknown version and a *valid*
  // checksum, so the version check itself is what fires. Version 3 server
  // streams lack the class index that version 4 appends.
  for (const uint32_t version : {1u, 2u, 3u, 99u}) {
    common::BlobWriter writer;
    for (char c : kSnapshotMagic) writer.PutU8(static_cast<uint8_t>(c));
    writer.PutU32(version);
    writer.PutU32(0);  // no sections
    std::string bytes = writer.Release();
    common::BlobWriter crc;
    crc.PutU64(common::Crc64(bytes));
    bytes += crc.data();
    const auto decoded = DecodeSnapshot(bytes);
    ASSERT_FALSE(decoded.ok()) << version;
    EXPECT_NE(decoded.status().message().find(
                  "unsupported snapshot version " + std::to_string(version)),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SnapshotTest, RejectsEveryTruncation) {
  const std::string bytes = EncodeSnapshot(MetaOnlySnapshot());
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded = DecodeSnapshot(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(SnapshotTest, RejectsEverySingleByteFlip) {
  // Any single flipped bit must be caught — by the magic check, the
  // checksum, or (for flips inside the checksum field itself) the
  // checksum mismatch in the other direction.
  const std::string bytes = EncodeSnapshot(MetaOnlySnapshot());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    const auto decoded = DecodeSnapshot(corrupt);
    EXPECT_FALSE(decoded.ok()) << "accepted a flip at byte " << i;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbageAfterChecksum) {
  std::string bytes = EncodeSnapshot(MetaOnlySnapshot());
  bytes += "extra";
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
}

// --- CheckpointWriter ---------------------------------------------------

TEST(CheckpointTest, WriteRotateAndResumeNumbering) {
  TempDir dir("rotate");
  CheckpointWriterOptions options;
  options.directory = dir.path();
  options.keep = 2;
  auto writer = CheckpointWriter::Create(options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Snapshot snapshot = MetaOnlySnapshot();
  for (int i = 0; i < 5; ++i) {
    snapshot.meta.round = i;
    const auto path = writer->Write(snapshot);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    EXPECT_TRUE(fs::exists(*path));
  }
  auto files = ListSnapshotFiles(dir.path());
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);  // retention kept the newest two

  const auto latest = LoadLatestGoodSnapshot(dir.path());
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->snapshot.meta.round, 4);
  EXPECT_TRUE(latest->rejected.empty());

  // A new writer in the same directory must continue the numbering, so
  // a resumed run never overwrites the snapshot it restored from.
  auto resumed = CheckpointWriter::Create(options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->next_sequence(), writer->next_sequence());
}

TEST(CheckpointTest, FallsBackPastCorruptNewestSnapshot) {
  TempDir dir("fallback");
  CheckpointWriterOptions options;
  options.directory = dir.path();
  auto writer = CheckpointWriter::Create(options);
  ASSERT_TRUE(writer.ok());
  Snapshot snapshot = MetaOnlySnapshot();
  snapshot.meta.round = 1;
  ASSERT_TRUE(writer->Write(snapshot).ok());
  snapshot.meta.round = 2;
  const auto newest = writer->Write(snapshot);
  ASSERT_TRUE(newest.ok());

  // Flip one byte in the newest file.
  std::fstream file(*newest,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekp(12);
  char byte = 0;
  file.seekg(12);
  file.get(byte);
  file.seekp(12);
  file.put(static_cast<char>(byte ^ 0xFF));
  file.close();

  const auto loaded = LoadLatestGoodSnapshot(dir.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->snapshot.meta.round, 1);
  ASSERT_EQ(loaded->rejected.size(), 1u);
  EXPECT_NE(loaded->rejected[0].find(*newest), std::string::npos);
}

TEST(CheckpointTest, EmptyDirectoryIsNotFound) {
  TempDir dir("empty");
  const auto loaded = LoadLatestGoodSnapshot(dir.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kNotFound);
}

TEST(CheckpointTest, MissingDirectoryFailsLoudly) {
  EXPECT_FALSE(ListSnapshotFiles("/nonexistent/zs_recovery_dir").ok());
  EXPECT_FALSE(
      LoadLatestGoodSnapshot("/nonexistent/zs_recovery_dir").ok());
}

TEST(CheckpointTest, AllSnapshotsCorruptIsInvalidArgument) {
  TempDir dir("allbad");
  CheckpointWriterOptions options;
  options.directory = dir.path();
  auto writer = CheckpointWriter::Create(options);
  ASSERT_TRUE(writer.ok());
  const auto path = writer->Write(MetaOnlySnapshot());
  ASSERT_TRUE(path.ok());
  std::ofstream truncate(*path, std::ios::binary | std::ios::trunc);
  truncate << "short";
  truncate.close();
  const auto loaded = LoadLatestGoodSnapshot(dir.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument);
}

// --- RoundSimulator bit-identical resume ----------------------------------

TEST(SimulatorResumeTest, BatchedKernelBitIdentical) {
  sim::SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 1234;
  config.disturbance.probability = 0.3;
  config.disturbance.delay_min_s = 0.001;
  config.disturbance.delay_max_s = 0.004;
  auto faults = fault::ParseFaultSpec(
      "slowdown:enter=0.1,exit=0.3,prob=0.5,delay_max=0.01;"
      "burst:prob=0.05,len=3,delay_max=0.02");
  ASSERT_TRUE(faults.ok());
  config.faults = *faults;

  obs::RoundTraceRecorder reference_trace;
  sim::SimulatorConfig reference_config = config;
  reference_config.trace = &reference_trace;
  auto reference = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 20,
      sim::RoundSimulator::IidFactory(Table1Sizes()), reference_config);
  ASSERT_TRUE(reference.ok());
  for (int r = 0; r < 30; ++r) reference->RunRound();
  const size_t tail_start = reference_trace.size();

  // Snapshot at round 30 through the full wire encoding.
  Snapshot snapshot;
  snapshot.simulator = reference->ExportState();
  const auto decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->simulator.has_value());

  obs::RoundTraceRecorder resumed_trace;
  sim::SimulatorConfig resumed_config = config;
  resumed_config.trace = &resumed_trace;
  auto resumed = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 20,
      sim::RoundSimulator::IidFactory(Table1Sizes()), resumed_config);
  ASSERT_TRUE(resumed.ok());
  const auto imported = resumed->ImportState(*decoded->simulator);
  ASSERT_TRUE(imported.ok()) << imported.ToString();

  for (int r = 0; r < 30; ++r) {
    reference->RunRound();
    resumed->RunRound();
  }
  const auto all = reference_trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> expected(
      all.begin() + static_cast<ptrdiff_t>(tail_start), all.end());
  const auto status = CompareTraces(expected, resumed_trace.Snapshot());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(SimulatorResumeTest, ImportRejectsMismatchedShape) {
  sim::SimulatorConfig config;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 5,
      sim::RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(simulator.ok());
  sim::RoundSimulatorState state = simulator->ExportState();
  state.source_states.pop_back();  // wrong stream count
  EXPECT_FALSE(simulator->ImportState(state).ok());
  state = simulator->ExportState();
  state.has_fault_injector = true;  // snapshot from a faulted config
  EXPECT_FALSE(simulator->ImportState(state).ok());
  state = simulator->ExportState();
  state.rng_state = "garbage";
  EXPECT_FALSE(simulator->ImportState(state).ok());
}

// --- MediaServer bit-identical resume -----------------------------------

server::MediaServerConfig SoakedServerConfig(obs::Registry* registry,
                                             obs::RoundTraceRecorder* trace) {
  server::MediaServerConfig config;
  config.num_disks = 3;
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = 12;
  config.seed = 77;
  auto faults = fault::ParseFaultSpec(
      "slowdown:enter=0.2,exit=0.3,prob=0.7,delay_max=0.2;"
      "disk_failure:at=25,repair=10");
  ZS_CHECK(faults.ok());
  config.faults = *faults;
  config.fault_disk = 1;
  fault::DegradationPolicy policy;
  policy.glitch_rate_bound = 0.05;
  policy.window_rounds = 5;
  policy.trigger_windows = 1;
  policy.recovery_windows = 2;
  config.degradation = policy;
  config.max_fragment_retries = 2;
  config.metrics = registry;
  config.trace = trace;
  return config;
}

// Deterministic churn so the reference and resumed runs issue identical
// open/close sequences.
void Churn(server::MediaServer* server, numeric::Rng* rng,
           std::vector<int>* active) {
  for (int arrivals = 0; arrivals < 2; ++arrivals) {
    auto id = server->OpenStream(Table1Sizes(),
                                 static_cast<int>(rng->Uniform01() * 3));
    if (id.ok()) active->push_back(*id);
  }
  for (size_t i = 0; i < active->size();) {
    if (rng->Uniform01() < 0.02) {
      (void)server->CloseStream((*active)[i]);
      (*active)[i] = active->back();
      active->pop_back();
    } else {
      ++i;
    }
  }
}

TEST(ServerResumeTest, BitIdenticalWithFaultsDegradationAndRetries) {
  obs::Registry reference_registry;
  obs::RoundTraceRecorder reference_trace;
  auto reference = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      SoakedServerConfig(&reference_registry, &reference_trace));
  ASSERT_TRUE(reference.ok());
  numeric::Rng reference_churn(9);
  std::vector<int> reference_active;
  for (int r = 0; r < 30; ++r) {
    Churn(&*reference, &reference_churn, &reference_active);
    reference->RunRound();
  }
  const size_t tail_start = reference_trace.size();

  Snapshot snapshot;
  snapshot.server = reference->ExportState();
  snapshot.registry = reference_registry.ExportState();
  const auto decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  obs::Registry resumed_registry;
  obs::RoundTraceRecorder resumed_trace;
  auto resumed = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      SoakedServerConfig(&resumed_registry, &resumed_trace));
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(decoded->server.has_value());
  const auto restored = resumed->RestoreState(
      *decoded->server,
      [](const server::StreamSnapshotState&) { return Table1Sizes(); });
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  ASSERT_TRUE(decoded->registry.has_value());
  const auto imported = resumed_registry.ImportState(*decoded->registry);
  ASSERT_TRUE(imported.ok()) << imported.ToString();
  // The churn RNG is app state; clone it by save/restore.
  numeric::Rng resumed_churn(0);
  ASSERT_TRUE(resumed_churn.LoadState(reference_churn.SaveState()).ok());
  std::vector<int> resumed_active = reference_active;

  for (int r = 0; r < 30; ++r) {
    Churn(&*reference, &reference_churn, &reference_active);
    reference->RunRound();
    Churn(&*resumed, &resumed_churn, &resumed_active);
    resumed->RunRound();
  }
  const auto all = reference_trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> expected(
      all.begin() + static_cast<ptrdiff_t>(tail_start), all.end());
  auto status = CompareTraces(expected, resumed_trace.Snapshot());
  EXPECT_TRUE(status.ok()) << status.ToString();
  status = CompareRegistries(reference_registry.ExportState(),
                             resumed_registry.ExportState());
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reference->active_streams(), resumed->active_streams());
}

TEST(ServerResumeTest, RestoreRejectsMismatchedConfiguration) {
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  auto server = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      SoakedServerConfig(&registry, &trace));
  ASSERT_TRUE(server.ok());
  const auto resolver = [](const server::StreamSnapshotState&) {
    return Table1Sizes();
  };
  server::MediaServerState state = server->ExportState();
  state.arm_cylinder.pop_back();  // wrong disk count
  EXPECT_FALSE(server->RestoreState(state, resolver).ok());
  state = server->ExportState();
  state.has_degradation = false;  // snapshot from an un-degraded config
  EXPECT_FALSE(server->RestoreState(state, resolver).ok());
  state = server->ExportState();
  state.injector_present.assign(state.injector_present.size(), 0);
  state.fault_injectors.clear();  // snapshot from a fault-free config
  EXPECT_FALSE(server->RestoreState(state, resolver).ok());
  state = server->ExportState();
  state.rng_state = "garbage";
  EXPECT_FALSE(server->RestoreState(state, resolver).ok());
  // A rejected restore must leave the server able to keep running.
  server->RunRound();
}

server::MediaServerConfig ClassServerConfig(obs::RoundTraceRecorder* trace) {
  auto model = core::MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      {{"video", 200e3, 100e3 * 100e3}, {"audio", 16e3, 4e3 * 4e3}});
  ZS_CHECK(model.ok());
  server::MediaServerConfig config;
  config.num_disks = 2;
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = 1000;
  config.seed = 31;
  config.class_model =
      std::make_shared<core::MultiClassServiceModel>(*std::move(model));
  config.class_late_tolerance = 0.01;
  config.trace = trace;
  return config;
}

// Class-mode churn: one open of a random class, then random closes.
void ClassChurn(server::MediaServer* server, numeric::Rng* rng,
                std::vector<int>* active) {
  auto id = server->OpenStream(rng->Uniform01() < 0.5 ? 0 : 1);
  if (id.ok()) active->push_back(*id);
  for (size_t i = 0; i < active->size();) {
    if (rng->Uniform01() < 0.05) {
      (void)server->CloseStream((*active)[i]);
      (*active)[i] = active->back();
      active->pop_back();
    } else {
      ++i;
    }
  }
}

TEST(ServerResumeTest, ClassModeBitIdentical) {
  obs::RoundTraceRecorder reference_trace;
  auto reference = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      ClassServerConfig(&reference_trace));
  ASSERT_TRUE(reference.ok());
  numeric::Rng reference_churn(5);
  std::vector<int> reference_active;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(reference->OpenStream(i % 2).ok());
  }
  for (int r = 0; r < 20; ++r) {
    ClassChurn(&*reference, &reference_churn, &reference_active);
    reference->RunRound();
  }
  const size_t tail_start = reference_trace.size();

  Snapshot snapshot;
  snapshot.server = reference->ExportState();
  const auto decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->server.has_value());
  for (const server::StreamSnapshotState& stream : decoded->server->streams) {
    EXPECT_GE(stream.stream_class, 0);
  }

  // A class-mode state fits only a class-mode server, and vice versa.
  server::MediaServerConfig plain_config;
  plain_config.num_disks = 2;
  plain_config.per_disk_stream_limit = 1000;
  auto plain = server::MediaServer::Create(disk::QuantumViking2100(),
                                           disk::QuantumViking2100Seek(),
                                           plain_config);
  ASSERT_TRUE(plain.ok());
  const auto resolver = [](const server::StreamSnapshotState&) {
    return Table1Sizes();
  };
  EXPECT_FALSE(plain->RestoreState(*decoded->server, resolver).ok());
  ASSERT_TRUE(plain->OpenStream(Table1Sizes()).ok());

  obs::RoundTraceRecorder resumed_trace;
  auto resumed = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      ClassServerConfig(&resumed_trace));
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed->RestoreState(plain->ExportState(), resolver).ok());
  server::MediaServerState bad_class = *decoded->server;
  bad_class.streams.front().stream_class = 2;  // the model has 2 classes
  EXPECT_FALSE(resumed->RestoreState(bad_class, nullptr).ok());
  // Class streams re-bind to their class's sizes: no resolver needed.
  const auto restored = resumed->RestoreState(*decoded->server, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(resumed->phase_mix(p), reference->phase_mix(p));
  }
  numeric::Rng resumed_churn(0);
  ASSERT_TRUE(resumed_churn.LoadState(reference_churn.SaveState()).ok());
  std::vector<int> resumed_active = reference_active;

  for (int r = 0; r < 20; ++r) {
    ClassChurn(&*reference, &reference_churn, &reference_active);
    reference->RunRound();
    ClassChurn(&*resumed, &resumed_churn, &resumed_active);
    resumed->RunRound();
  }
  const auto all = reference_trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> expected(
      all.begin() + static_cast<ptrdiff_t>(tail_start), all.end());
  const auto status = CompareTraces(expected, resumed_trace.Snapshot());
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reference->active_streams(), resumed->active_streams());
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(reference->active_streams_of_class(c),
              resumed->active_streams_of_class(c));
  }
  const server::ServerStats a = reference->GetServerStats();
  const server::ServerStats b = resumed->GetServerStats();
  EXPECT_EQ(a.fragments_served, b.fragments_served);
  EXPECT_EQ(a.glitches, b.glitches);
}

// --- VerifyReplay harness ----------------------------------------------

TEST(VerifyReplayTest, DetectsDivergence) {
  // A resume runner that fabricates a different tail must be caught.
  const auto reference = []() -> common::StatusOr<ReplayArtifacts> {
    ReplayArtifacts artifacts;
    artifacts.snapshot = MetaOnlySnapshot();
    obs::RoundTraceEvent event;
    event.round = 1;
    event.service_time_s = 0.5;
    artifacts.tail_events.push_back(event);
    return artifacts;
  };
  const auto faithful =
      [](const Snapshot&) -> common::StatusOr<ReplayArtifacts> {
    ReplayArtifacts artifacts;
    obs::RoundTraceEvent event;
    event.round = 1;
    event.service_time_s = 0.5;
    artifacts.tail_events.push_back(event);
    return artifacts;
  };
  EXPECT_TRUE(VerifyReplay(reference, faithful).ok());

  const auto divergent =
      [](const Snapshot&) -> common::StatusOr<ReplayArtifacts> {
    ReplayArtifacts artifacts;
    obs::RoundTraceEvent event;
    event.round = 1;
    event.service_time_s = 0.5000001;
    artifacts.tail_events.push_back(event);
    return artifacts;
  };
  const auto status = VerifyReplay(reference, divergent);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("service_time_s"), std::string::npos);
}

}  // namespace
}  // namespace zonestream::recovery
