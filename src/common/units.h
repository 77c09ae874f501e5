// Unit conventions shared across zonestream.
//
// The paper's arithmetic only reproduces with decimal kilobytes (the §4
// worst-case example T_trans^max = 71.7 ms requires 1 KB = 1000 bytes), so
// all byte quantities use decimal SI prefixes. Times are double seconds,
// rates are bytes per second, disk distances are cylinder counts.
#ifndef ZONESTREAM_COMMON_UNITS_H_
#define ZONESTREAM_COMMON_UNITS_H_

#include <cstdint>

namespace zonestream::common {

// Bytes per decimal kilobyte/megabyte/gigabyte.
inline constexpr double kKilobyte = 1000.0;
inline constexpr double kMegabyte = 1000.0 * 1000.0;
inline constexpr double kGigabyte = 1000.0 * 1000.0 * 1000.0;

// Seconds per millisecond/microsecond.
inline constexpr double kMillisecond = 1e-3;
inline constexpr double kMicrosecond = 1e-6;

// Converts seconds to milliseconds.
constexpr double SecondsToMillis(double seconds) {
  return seconds / kMillisecond;
}

}  // namespace zonestream::common

#endif  // ZONESTREAM_COMMON_UNITS_H_
