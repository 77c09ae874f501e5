#include "recovery/snapshot.h"

#include <utility>
#include <vector>

#include "common/blob.h"

namespace zonestream::recovery {

namespace {

// Section names interpreted by this library. Anything else round-trips
// through Snapshot::app_sections.
constexpr std::string_view kSectionMeta = "meta";
constexpr std::string_view kSectionServer = "server";
constexpr std::string_view kSectionSimulator = "sim";
constexpr std::string_view kSectionRegistry = "registry";
constexpr std::string_view kSectionService = "service";

// --- component codecs ------------------------------------------------------
//
// Each Encode* writes into a common::BlobWriter; each Decode* reads from a
// common::BlobReader, latching the reader's sticky error on any structural
// problem. Range/shape semantics beyond "safe to hold in memory" are the
// component ImportState's job at restore time.

void EncodeRunningStats(const numeric::RunningStatsState& state,
                        common::BlobWriter* out) {
  out->PutI64(state.count);
  out->PutF64(state.mean);
  out->PutF64(state.m2);
  out->PutF64(state.min);
  out->PutF64(state.max);
}

numeric::RunningStatsState DecodeRunningStats(common::BlobReader* in) {
  numeric::RunningStatsState state;
  state.count = in->TakeI64();
  state.mean = in->TakeF64();
  state.m2 = in->TakeF64();
  state.min = in->TakeF64();
  state.max = in->TakeF64();
  return state;
}

void EncodeFaultInjector(const fault::FaultInjectorState& state,
                         common::BlobWriter* out) {
  out->PutU64(state.model_names.size());
  for (const std::string& name : state.model_names) out->PutString(name);
  out->PutU64(state.model_states.size());
  for (const std::vector<uint64_t>& words : state.model_states) {
    out->PutWords(words);
  }
  out->PutU64(state.rng_states.size());
  for (const std::string& rng : state.rng_states) out->PutString(rng);
  out->PutI64(state.rounds_begun);
}

fault::FaultInjectorState DecodeFaultInjector(common::BlobReader* in) {
  fault::FaultInjectorState state;
  // Counts are claims over remaining bytes; each element consumes at
  // least 8 bytes, so capping by remaining()/8 bounds allocation.
  uint64_t names = in->TakeU64();
  if (names > in->remaining() / 8) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < names; ++i) {
    state.model_names.push_back(in->TakeString());
  }
  uint64_t model_states = in->TakeU64();
  if (model_states > in->remaining() / 8) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < model_states; ++i) {
    state.model_states.push_back(in->TakeWords());
  }
  uint64_t rngs = in->TakeU64();
  if (rngs > in->remaining() / 8) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < rngs; ++i) {
    state.rng_states.push_back(in->TakeString());
  }
  state.rounds_begun = in->TakeI64();
  return state;
}

void EncodeDegradation(const fault::DegradationControllerState& state,
                       common::BlobWriter* out) {
  out->PutU8(static_cast<uint8_t>(state.state));
  out->PutI64(state.rounds_observed);
  out->PutI64(state.window_rounds_seen);
  out->PutI64(state.window_stream_rounds);
  out->PutI64(state.window_glitches);
  out->PutI64(state.window_overruns);
  out->PutI64(state.last_active_streams);
  out->PutI64(state.violating_windows);
  out->PutI64(state.clean_windows);
  out->PutU64(state.events.size());
  for (const fault::DegradationEvent& event : state.events) {
    out->PutI64(event.round);
    out->PutU8(static_cast<uint8_t>(event.from));
    out->PutU8(static_cast<uint8_t>(event.to));
    out->PutI64(event.shed_streams);
    out->PutF64(event.window_glitch_rate);
  }
}

fault::DegradationState DecodeDegradationState(common::BlobReader* in) {
  const uint8_t value = in->TakeU8();
  if (value > 2) in->Fail();
  return static_cast<fault::DegradationState>(value);
}

fault::DegradationControllerState DecodeDegradation(common::BlobReader* in) {
  fault::DegradationControllerState state;
  state.state = DecodeDegradationState(in);
  state.rounds_observed = in->TakeI64();
  state.window_rounds_seen = in->TakeI64();
  state.window_stream_rounds = in->TakeI64();
  state.window_glitches = in->TakeI64();
  state.window_overruns = in->TakeI64();
  state.last_active_streams = static_cast<int>(in->TakeI64());
  state.violating_windows = static_cast<int>(in->TakeI64());
  state.clean_windows = static_cast<int>(in->TakeI64());
  uint64_t events = in->TakeU64();
  // Each event is 26 bytes; cap the claim by what the payload holds.
  if (events > in->remaining() / 26) in->Fail();
  if (!in->ok()) return state;
  state.events.reserve(static_cast<size_t>(events));
  for (uint64_t i = 0; i < events; ++i) {
    fault::DegradationEvent event;
    event.round = in->TakeI64();
    event.from = DecodeDegradationState(in);
    event.to = DecodeDegradationState(in);
    event.shed_streams = static_cast<int>(in->TakeI64());
    event.window_glitch_rate = in->TakeF64();
    state.events.push_back(event);
  }
  return state;
}

void EncodeServer(const server::MediaServerState& state,
                  common::BlobWriter* out) {
  out->PutString(state.rng_state);
  out->PutI64(state.round);
  out->PutI64(state.next_stream_id);
  out->PutU64(state.streams.size());
  for (const server::StreamSnapshotState& stream : state.streams) {
    out->PutI64(stream.stream_id);
    out->PutI64(stream.phase);
    out->PutI64(stream.priority_class);
    out->PutI64(stream.stream_class);
    out->PutI64(stream.next_fragment);
    out->PutF64(stream.retry_bytes);
    out->PutI64(stream.retry_attempts);
    out->PutI64(stream.stats.rounds_served);
    out->PutI64(stream.stats.glitches);
    out->PutI64(stream.stats.retries);
    out->PutI64(stream.stats.drops);
  }
  out->PutU64(state.arm_cylinder.size());
  for (const int64_t cylinder : state.arm_cylinder) out->PutI64(cylinder);
  out->PutU64(state.ascending.size());
  for (const uint8_t ascending : state.ascending) out->PutU8(ascending);
  out->PutU64(state.injector_present.size());
  for (const uint8_t present : state.injector_present) out->PutU8(present);
  out->PutU64(state.fault_injectors.size());
  for (const fault::FaultInjectorState& injector : state.fault_injectors) {
    EncodeFaultInjector(injector, out);
  }
  out->PutBool(state.has_degradation);
  if (state.has_degradation) EncodeDegradation(state.degradation, out);
  out->PutBool(state.admissions_open);
  out->PutI64(state.fragments_served);
  out->PutI64(state.total_glitches);
  out->PutI64(state.fragments_retried);
  out->PutI64(state.fragments_dropped);
  out->PutI64(state.streams_shed);
  out->PutU64(state.busy_fraction.size());
  for (const numeric::RunningStatsState& busy : state.busy_fraction) {
    EncodeRunningStats(busy, out);
  }
  // Parity/repair fields (snapshot version 2).
  out->PutU64(state.spare_active.size());
  for (const uint8_t spare : state.spare_active) out->PutU8(spare);
  out->PutBool(state.repair_present);
  if (state.repair_present) {
    out->PutBool(state.repair.active);
    out->PutI64(state.repair.target_disk);
    out->PutI64(state.repair.stripes_rebuilt);
  }
  out->PutI64(state.reconstructed_fragments);
  out->PutI64(state.rounds_degraded);
}

server::MediaServerState DecodeServer(common::BlobReader* in) {
  server::MediaServerState state;
  state.rng_state = in->TakeString();
  state.round = in->TakeI64();
  state.next_stream_id = in->TakeI64();
  uint64_t streams = in->TakeU64();
  if (streams > in->remaining() / 88) in->Fail();  // 11 words per stream
  if (!in->ok()) return state;
  state.streams.reserve(static_cast<size_t>(streams));
  for (uint64_t i = 0; i < streams; ++i) {
    server::StreamSnapshotState stream;
    stream.stream_id = static_cast<int>(in->TakeI64());
    stream.phase = static_cast<int>(in->TakeI64());
    stream.priority_class = static_cast<int>(in->TakeI64());
    stream.stream_class = static_cast<int>(in->TakeI64());
    stream.next_fragment = in->TakeI64();
    stream.retry_bytes = in->TakeF64();
    stream.retry_attempts = static_cast<int>(in->TakeI64());
    stream.stats.rounds_served = in->TakeI64();
    stream.stats.glitches = in->TakeI64();
    stream.stats.retries = in->TakeI64();
    stream.stats.drops = in->TakeI64();
    state.streams.push_back(stream);
  }
  uint64_t arms = in->TakeU64();
  if (arms > in->remaining() / 8) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < arms; ++i) {
    state.arm_cylinder.push_back(in->TakeI64());
  }
  uint64_t flags = in->TakeU64();
  if (flags > in->remaining()) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < flags; ++i) {
    state.ascending.push_back(in->TakeU8());
  }
  flags = in->TakeU64();
  if (flags > in->remaining()) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < flags; ++i) {
    state.injector_present.push_back(in->TakeU8());
  }
  uint64_t injectors = in->TakeU64();
  if (injectors > in->remaining() / 8) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < injectors; ++i) {
    state.fault_injectors.push_back(DecodeFaultInjector(in));
  }
  state.has_degradation = in->TakeBool();
  if (state.has_degradation) state.degradation = DecodeDegradation(in);
  state.admissions_open = in->TakeBool();
  state.fragments_served = in->TakeI64();
  state.total_glitches = in->TakeI64();
  state.fragments_retried = in->TakeI64();
  state.fragments_dropped = in->TakeI64();
  state.streams_shed = in->TakeI64();
  uint64_t busy = in->TakeU64();
  if (busy > in->remaining() / 40) in->Fail();  // 5 words per entry
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < busy; ++i) {
    state.busy_fraction.push_back(DecodeRunningStats(in));
  }
  uint64_t spares = in->TakeU64();
  if (spares > in->remaining()) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < spares; ++i) {
    state.spare_active.push_back(in->TakeU8());
  }
  state.repair_present = in->TakeBool();
  if (state.repair_present) {
    state.repair.active = in->TakeBool();
    state.repair.target_disk = static_cast<int>(in->TakeI64());
    state.repair.stripes_rebuilt = in->TakeI64();
  }
  state.reconstructed_fragments = in->TakeI64();
  state.rounds_degraded = in->TakeI64();
  return state;
}

void EncodeSimulator(const sim::RoundSimulatorState& state,
                     common::BlobWriter* out) {
  out->PutString(state.rng_state);
  out->PutString(state.disturbance_rng_state);
  out->PutBool(state.has_fault_injector);
  if (state.has_fault_injector) EncodeFaultInjector(state.fault_injector, out);
  out->PutI64(state.arm_cylinder);
  out->PutBool(state.ascending);
  out->PutI64(state.rounds_run);
  out->PutU64(state.source_states.size());
  for (const std::vector<uint64_t>& words : state.source_states) {
    out->PutWords(words);
  }
}

sim::RoundSimulatorState DecodeSimulator(common::BlobReader* in) {
  sim::RoundSimulatorState state;
  state.rng_state = in->TakeString();
  state.disturbance_rng_state = in->TakeString();
  state.has_fault_injector = in->TakeBool();
  if (state.has_fault_injector) state.fault_injector = DecodeFaultInjector(in);
  state.arm_cylinder = static_cast<int>(in->TakeI64());
  state.ascending = in->TakeBool();
  state.rounds_run = in->TakeI64();
  uint64_t sources = in->TakeU64();
  if (sources > in->remaining() / 8) in->Fail();
  if (!in->ok()) return state;
  state.source_states.reserve(static_cast<size_t>(sources));
  for (uint64_t i = 0; i < sources; ++i) {
    state.source_states.push_back(in->TakeWords());
  }
  return state;
}

void EncodeRegistry(const obs::RegistryState& state, common::BlobWriter* out) {
  out->PutU64(state.counters.size());
  for (const auto& [name, value] : state.counters) {
    out->PutString(name);
    out->PutI64(value);
  }
  out->PutU64(state.gauges.size());
  for (const auto& [name, value] : state.gauges) {
    out->PutString(name);
    out->PutF64(value);
  }
  out->PutU64(state.histograms.size());
  for (const auto& [name, histogram] : state.histograms) {
    out->PutString(name);
    out->PutI64(histogram.count);
    out->PutF64(histogram.sum);
    out->PutF64(histogram.min);
    out->PutF64(histogram.max);
    // Sparse bucket encoding: only the non-zero buckets travel.
    uint64_t nonzero = 0;
    for (const int64_t bucket : histogram.buckets) {
      if (bucket != 0) ++nonzero;
    }
    out->PutU64(nonzero);
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      if (histogram.buckets[i] == 0) continue;
      out->PutU64(i);
      out->PutI64(histogram.buckets[i]);
    }
  }
}

obs::RegistryState DecodeRegistry(common::BlobReader* in) {
  obs::RegistryState state;
  uint64_t counters = in->TakeU64();
  if (counters > in->remaining() / 16) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < counters; ++i) {
    std::string name = in->TakeString();
    const int64_t value = in->TakeI64();
    state.counters.emplace_back(std::move(name), value);
  }
  uint64_t gauges = in->TakeU64();
  if (gauges > in->remaining() / 16) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < gauges; ++i) {
    std::string name = in->TakeString();
    const double value = in->TakeF64();
    state.gauges.emplace_back(std::move(name), value);
  }
  uint64_t histograms = in->TakeU64();
  if (histograms > in->remaining() / 48) in->Fail();
  if (!in->ok()) return state;
  for (uint64_t i = 0; i < histograms; ++i) {
    std::string name = in->TakeString();
    obs::HistogramState histogram;
    histogram.buckets.assign(obs::Histogram::kNumBuckets, 0);
    histogram.count = in->TakeI64();
    histogram.sum = in->TakeF64();
    histogram.min = in->TakeF64();
    histogram.max = in->TakeF64();
    const uint64_t nonzero = in->TakeU64();
    if (nonzero > in->remaining() / 16) in->Fail();
    if (!in->ok()) return state;
    for (uint64_t b = 0; b < nonzero; ++b) {
      const uint64_t index = in->TakeU64();
      const int64_t count = in->TakeI64();
      if (!in->ok()) return state;
      if (index >= histogram.buckets.size() ||
          histogram.buckets[index] != 0) {
        // Out-of-range or duplicate bucket index: corrupt payload.
        in->Fail();
        return state;
      }
      histogram.buckets[index] = count;
    }
    state.histograms.emplace_back(std::move(name), std::move(histogram));
  }
  return state;
}

void EncodeMeta(const SnapshotMeta& meta, common::BlobWriter* out) {
  out->PutI64(meta.round);
  out->PutU64(meta.base_seed);
  out->PutString(meta.producer);
}

SnapshotMeta DecodeMeta(common::BlobReader* in) {
  SnapshotMeta meta;
  meta.round = in->TakeI64();
  meta.base_seed = in->TakeU64();
  meta.producer = in->TakeString();
  return meta;
}

// Runs one section codec over a payload and demands full consumption —
// trailing garbage inside a section is corruption, not slack.
template <typename State, typename Decoder>
common::Status DecodeSection(std::string_view name, std::string_view payload,
                             const Decoder& decoder, State* out) {
  common::BlobReader reader(payload);
  State state = decoder(&reader);
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument(
        "snapshot section '" + std::string(name) +
        "' is malformed (truncated or trailing bytes)");
  }
  *out = std::move(state);
  return common::Status::Ok();
}

}  // namespace

std::string EncodeSnapshot(const Snapshot& snapshot) {
  // Gather (name, payload) pairs first, then wrap in the container.
  std::vector<std::pair<std::string, std::string>> sections;
  {
    common::BlobWriter meta;
    EncodeMeta(snapshot.meta, &meta);
    sections.emplace_back(std::string(kSectionMeta), meta.Release());
  }
  if (snapshot.server.has_value()) {
    common::BlobWriter writer;
    EncodeServer(*snapshot.server, &writer);
    sections.emplace_back(std::string(kSectionServer), writer.Release());
  }
  if (snapshot.simulator.has_value()) {
    common::BlobWriter writer;
    EncodeSimulator(*snapshot.simulator, &writer);
    sections.emplace_back(std::string(kSectionSimulator), writer.Release());
  }
  if (snapshot.registry.has_value()) {
    common::BlobWriter writer;
    EncodeRegistry(*snapshot.registry, &writer);
    sections.emplace_back(std::string(kSectionRegistry), writer.Release());
  }
  if (snapshot.service.has_value()) {
    // The section payload is the canonical service-state encoding,
    // verbatim — one codec, one digest, shared with the live daemon.
    sections.emplace_back(
        std::string(kSectionService),
        service::EncodeAdmissionServiceState(*snapshot.service));
  }
  for (const auto& [name, payload] : snapshot.app_sections) {
    sections.emplace_back(name, payload);
  }

  common::BlobWriter out;
  // The magic is raw bytes, not a length-prefixed string.
  for (const char c : kSnapshotMagic) out.PutU8(static_cast<uint8_t>(c));
  out.PutU32(kSnapshotVersion);
  out.PutU32(static_cast<uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    out.PutString(name);
    out.PutString(payload);
  }
  const uint64_t checksum = common::Crc64(out.data());
  out.PutU64(checksum);
  return out.Release();
}

common::StatusOr<Snapshot> DecodeSnapshot(std::string_view bytes) {
  constexpr size_t kMinSize = 8 + 4 + 4 + 8;  // magic+version+count+crc
  if (bytes.size() < kMinSize) {
    return common::Status::InvalidArgument(
        "snapshot too short to be a zonestream-snapshot-v1 container");
  }
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return common::Status::InvalidArgument(
        "snapshot magic mismatch (not a zonestream snapshot)");
  }
  // Checksum covers everything before the trailing CRC field; verify it
  // before trusting any length or payload inside.
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  common::BlobReader crc_reader(bytes.substr(bytes.size() - 8));
  const uint64_t stored_crc = crc_reader.TakeU64();
  const uint64_t actual_crc = common::Crc64(body);
  if (stored_crc != actual_crc) {
    return common::Status::InvalidArgument(
        "snapshot checksum mismatch (file is corrupt or truncated)");
  }
  common::BlobReader reader(body.substr(kSnapshotMagic.size()));
  const uint32_t version = reader.TakeU32();
  if (version != kSnapshotVersion) {
    return common::Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  const uint32_t section_count = reader.TakeU32();
  Snapshot snapshot;
  bool saw_meta = false;
  for (uint32_t i = 0; i < section_count; ++i) {
    const std::string name = reader.TakeString();
    const std::string payload = reader.TakeString();
    if (!reader.ok()) break;
    if (name == kSectionMeta) {
      if (saw_meta) {
        return common::Status::InvalidArgument(
            "snapshot carries duplicate 'meta' sections");
      }
      saw_meta = true;
      if (auto status =
              DecodeSection(name, payload, DecodeMeta, &snapshot.meta);
          !status.ok()) {
        return status;
      }
    } else if (name == kSectionServer) {
      if (snapshot.server.has_value()) {
        return common::Status::InvalidArgument(
            "snapshot carries duplicate 'server' sections");
      }
      server::MediaServerState state;
      if (auto status = DecodeSection(name, payload, DecodeServer, &state);
          !status.ok()) {
        return status;
      }
      snapshot.server = std::move(state);
    } else if (name == kSectionSimulator) {
      if (snapshot.simulator.has_value()) {
        return common::Status::InvalidArgument(
            "snapshot carries duplicate 'sim' sections");
      }
      sim::RoundSimulatorState state;
      if (auto status = DecodeSection(name, payload, DecodeSimulator, &state);
          !status.ok()) {
        return status;
      }
      snapshot.simulator = std::move(state);
    } else if (name == kSectionRegistry) {
      if (snapshot.registry.has_value()) {
        return common::Status::InvalidArgument(
            "snapshot carries duplicate 'registry' sections");
      }
      obs::RegistryState state;
      if (auto status = DecodeSection(name, payload, DecodeRegistry, &state);
          !status.ok()) {
        return status;
      }
      snapshot.registry = std::move(state);
    } else if (name == kSectionService) {
      if (snapshot.service.has_value()) {
        return common::Status::InvalidArgument(
            "snapshot carries duplicate 'service' sections");
      }
      auto state = service::DecodeAdmissionServiceState(payload);
      if (!state.ok()) {
        return common::Status::InvalidArgument(
            "snapshot section 'service': " + state.status().message());
      }
      snapshot.service = std::move(state).value();
    } else {
      if (!snapshot.app_sections.emplace(name, payload).second) {
        return common::Status::InvalidArgument(
            "snapshot carries duplicate '" + name + "' sections");
      }
    }
  }
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument(
        "snapshot container is malformed (truncated section table or "
        "trailing bytes)");
  }
  if (!saw_meta) {
    return common::Status::InvalidArgument(
        "snapshot carries no 'meta' section");
  }
  return snapshot;
}

std::string DescribeSnapshot(const Snapshot& snapshot) {
  std::string out;
  out += "zonestream-snapshot-v" + std::to_string(kSnapshotVersion) + "\n";
  out += "  producer: " +
         (snapshot.meta.producer.empty() ? "(unknown)"
                                         : snapshot.meta.producer) +
         "\n";
  out += "  round:    " + std::to_string(snapshot.meta.round) + "\n";
  out += "  seed:     " + std::to_string(snapshot.meta.base_seed) + "\n";
  out += "  sections:";
  out += " meta";
  if (snapshot.server.has_value()) out += " server";
  if (snapshot.simulator.has_value()) out += " sim";
  if (snapshot.registry.has_value()) out += " registry";
  if (snapshot.service.has_value()) out += " service";
  for (const auto& [name, payload] : snapshot.app_sections) {
    out += " " + name + "(" + std::to_string(payload.size()) + "B)";
  }
  out += "\n";
  if (snapshot.server.has_value()) {
    out += "  server:   " + std::to_string(snapshot.server->streams.size()) +
           " streams, round " + std::to_string(snapshot.server->round) +
           ", " + std::to_string(snapshot.server->arm_cylinder.size()) +
           " disks\n";
    int spares = 0;
    for (const uint8_t spare : snapshot.server->spare_active) {
      if (spare != 0) ++spares;
    }
    if (snapshot.server->repair_present) {
      const server::RepairControllerState& repair = snapshot.server->repair;
      out += "  repair:   ";
      if (repair.active) {
        out += "rebuilding disk " + std::to_string(repair.target_disk) +
               ", " + std::to_string(repair.stripes_rebuilt) +
               " stripes done";
      } else if (repair.stripes_rebuilt > 0) {
        out += "complete (" + std::to_string(repair.stripes_rebuilt) +
               " stripes)";
      } else {
        out += "idle";
      }
      out += ", " + std::to_string(spares) + " spare(s) active, " +
             std::to_string(snapshot.server->rounds_degraded) +
             " degraded round(s)\n";
    } else if (spares > 0 || snapshot.server->rounds_degraded > 0) {
      out += "  repair:   " + std::to_string(spares) +
             " spare(s) active, " +
             std::to_string(snapshot.server->rounds_degraded) +
             " degraded round(s)\n";
    }
  }
  if (snapshot.simulator.has_value()) {
    out += "  sim:      " +
           std::to_string(snapshot.simulator->source_states.size()) +
           " streams, round " +
           std::to_string(snapshot.simulator->rounds_run) + "\n";
  }
  if (snapshot.registry.has_value()) {
    out += "  registry: " +
           std::to_string(snapshot.registry->counters.size()) +
           " counters, " + std::to_string(snapshot.registry->gauges.size()) +
           " gauges, " +
           std::to_string(snapshot.registry->histograms.size()) +
           " histograms\n";
  }
  if (snapshot.service.has_value()) {
    out += "  service:  " +
           std::to_string(snapshot.service->sessions.size()) +
           " sessions, " +
           std::to_string(snapshot.service->class_limits.size()) +
           " classes, limits v" +
           std::to_string(snapshot.service->limits_version) + ", digest " +
           std::to_string(
               service::AdmissionServiceStateDigest(*snapshot.service)) +
           "\n";
  }
  return out;
}

}  // namespace zonestream::recovery
