// Exporters for the observability subsystem: registry snapshots as JSON
// or aligned text (TablePrinter).
//
// Formats (documented in docs/OBSERVABILITY.md):
//   * RegistryToJson: one JSON object {"counters": {...}, "gauges": {...},
//     "histograms": {name: {count, sum, mean, min, max, p50, p95, p99}}}.
// Doubles are serialized with %.17g, so every finite value round-trips.
#ifndef ZONESTREAM_OBS_EXPORT_H_
#define ZONESTREAM_OBS_EXPORT_H_

#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace zonestream::obs {

// --- JSON ------------------------------------------------------------------

// Serializes a registry snapshot as a single JSON object.
std::string RegistryToJson(const RegistrySnapshot& snapshot);

// --- Text ------------------------------------------------------------------

// Renders the snapshot as aligned TablePrinter tables (counters & gauges,
// then histograms), suitable for terminal output.
std::string RegistryToText(const RegistrySnapshot& snapshot);

// Convenience: RegistryToText straight to a stream.
void PrintRegistry(const RegistrySnapshot& snapshot, std::FILE* out = stdout);

}  // namespace zonestream::obs

#endif  // ZONESTREAM_OBS_EXPORT_H_
