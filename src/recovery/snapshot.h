// The zonestream-snapshot-v1 container: a versioned, checksummed,
// section-structured serialization of everything a long run needs to
// resume bit-identically — server state (admitted streams, per-disk arm
// and fault state, degradation machine), simulator state, every RNG
// substream position, and the exact observability counters/histograms.
//
// Layout (all integers little-endian):
//
//   magic   "ZSNAPv1\0"                          8 bytes
//   u32     version (kSnapshotVersion)
//   u32     section count
//   per section:
//     string  name   (u64 length + bytes)
//     string  payload (u64 length + bytes)
//   u64     CRC-64/XZ of every byte above
//
// Decoding verifies magic, version, and checksum before looking inside
// any payload, and every payload codec validates shape and ranges, so a
// truncated or bit-flipped file yields a clean error — never UB. Unknown
// sections round-trip untouched (they land in Snapshot::app_sections),
// which is how application drivers (e.g. the video_server_sim churn
// loop) persist their own state alongside the library's.
#ifndef ZONESTREAM_RECOVERY_SNAPSHOT_H_
#define ZONESTREAM_RECOVERY_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"
#include "server/media_server.h"
#include "service/admission_service.h"
#include "sim/round_simulator.h"

namespace zonestream::recovery {

// Eight magic bytes (the length is explicit: the literal embeds a NUL).
// The magic names the container *family*; the version field below tracks
// the payload format. Version history:
//   1 — original PR 5 format.
//   2 — server section gained parity/repair fields (spare flags, repair
//       progress, degraded counters). Version-1 files are rejected with a
//       clear "unsupported snapshot version" error rather than risking a
//       silent misparse of the appended fields.
//   3 — added the 'service' section: the admission-service control
//       plane (session registry, per-class limits, published table).
//       The payload is byte-for-byte the canonical
//       service::EncodeAdmissionServiceState encoding, so the daemon's
//       live Digest() and the snapshot section digest agree by
//       construction. Older versions are rejected per the v1 precedent.
//       Still version 3 after MediaServer moved to batched per-round
//       draws and the shared SCAN kernel: the server payload carries
//       the request RNG position, never a pending draw, so its format is
//       unchanged. A server restored from a snapshot taken before that
//       change continues on the new sample path; it resumes bit-
//       identically only against a server of the same build.
//   4 — each server stream carries its class index (-1 when opened by
//       distribution), so a MediaServer in class mode
//       (MediaServerConfig::class_model) resumes with its per-phase class
//       mixes. Version-3 files are rejected per the v1 precedent.
inline constexpr std::string_view kSnapshotMagic{"ZSNAPv1\0", 8};
inline constexpr uint32_t kSnapshotVersion = 4;

// Informational header — never consulted by restore logic, but lets
// `zonestream_ctl snapshot inspect` describe a file without the config
// that produced it.
struct SnapshotMeta {
  int64_t round = 0;          // position of the checkpointed run
  uint64_t base_seed = 0;     // the run's configured seed
  std::string producer;       // free-form producer tag ("video_server_sim")
};

// One checkpoint. The optional sections mirror what the producing run
// had live: a server run fills `server`, a simulator run `simulator`,
// and either may add the metrics registry and app-private sections.
struct Snapshot {
  SnapshotMeta meta;
  std::optional<server::MediaServerState> server;
  std::optional<sim::RoundSimulatorState> simulator;
  std::optional<obs::RegistryState> registry;
  std::optional<service::AdmissionServiceState> service;
  // Raw payloads of sections this library does not interpret, keyed by
  // section name. Producers should prefix their names with "app." to
  // stay clear of future library sections.
  std::map<std::string, std::string> app_sections;
};

// Serializes `snapshot` into the container format above.
std::string EncodeSnapshot(const Snapshot& snapshot);

// Parses and fully validates a container. Returns InvalidArgument with a
// specific message on bad magic, unsupported version, checksum mismatch,
// truncation, or a malformed section payload.
common::StatusOr<Snapshot> DecodeSnapshot(std::string_view bytes);

// Short human-readable description of a snapshot (round, seed, producer,
// section inventory) for the `snapshot inspect` CLI.
std::string DescribeSnapshot(const Snapshot& snapshot);

}  // namespace zonestream::recovery

#endif  // ZONESTREAM_RECOVERY_SNAPSHOT_H_
