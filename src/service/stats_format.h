// Human-readable rendering of admission-service state for zonestream_ctl
// ("admitd stats"). Pure string formatting (TablePrinter), so the golden
// tests pin the exact layout without a daemon in the loop.
#ifndef ZONESTREAM_SERVICE_STATS_FORMAT_H_
#define ZONESTREAM_SERVICE_STATS_FORMAT_H_

#include <string>

#include "service/admission_service.h"

namespace zonestream::service {

// Per-class occupancy/limits plus registry shard summary.
std::string FormatServiceStats(const ServiceStats& stats);

}  // namespace zonestream::service

#endif  // ZONESTREAM_SERVICE_STATS_FORMAT_H_
