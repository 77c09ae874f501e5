// Wide element-wise kernels for the batched SCAN sweep (sched/scan_kernel.h).
//
// The sweep's clock chain (a strictly-ordered prefix sum with a
// deadline compare per request) cannot vectorize without changing
// floating-point results, but the two expensive per-request terms that
// feed it can: the transfer time (one double division each) and the
// seek time (a piecewise sqrt/linear curve) depend only on their own
// request, so both evaluate 4 or 8 lanes at a time before the scalar
// walk. Every wide operation (divide, sqrt, multiply, add) is IEEE
// correctly rounded and applied in the scalar expression order, and the
// piecewise branches become per-lane blends of two fully-evaluated
// regimes — so the lanes are bit-identical to the scalar loop on every
// SIMD tier, and the golden round traces hold on any host.
#ifndef ZONESTREAM_SCHED_BATCH_KERNELS_H_
#define ZONESTREAM_SCHED_BATCH_KERNELS_H_

#include <cstddef>

#include "disk/seek_model.h"

namespace zonestream::sched::internal {

// out[i] = bytes[i] / rate_bps[i].
void TransferTimes(const double* bytes, const double* rate_bps, double* out,
                   size_t n);

// out[i] = seek.SeekTime(distance[i]); distances in cylinders (already
// non-negative in the sweep, but <= 0 maps to 0 exactly as the scalar
// model does).
void SeekTimes(const disk::SeekTimeModel& seek, const double* distance,
               double* out, size_t n);

}  // namespace zonestream::sched::internal

#endif  // ZONESTREAM_SCHED_BATCH_KERNELS_H_
