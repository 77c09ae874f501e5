// Oyang's tight upper bound on the accumulated seek time of one SCAN sweep
// ([Oya95], used in §3.1).
//
// For a seek-time function that is concave in the distance, the total seek
// time of a sweep serving N requests is maximized when the N targets are
// equidistant: at cylinders i * CYL / (N+1), i = 1..N. The sweep then
// consists of N+1 segments of length CYL/(N+1) (from cylinder 0 across the
// whole surface), so
//
//   SEEK(N) = (N + 1) * seek(CYL / (N + 1)).
//
// This reproduces the paper's example: SEEK(27) = 0.10932 s for the Table 1
// disk. The two-regime curves here are not concave, though: on the Table 1
// disk the linear regime starts steeper than the sqrt curve ends, and the
// synthetic presets step at the threshold. What the bound relies on instead
// is its (N+1)-th segment. N hops from cylinder 0 within the surface travel
// at most CYL, so by Jensen on the seek curve's concave majorant g
// (disk::SeekTimeModel::SeekTimeMajorant) they take at most N g(CYL / N),
// and on all three presets N g(CYL / N) <= (N + 1) seek(CYL / (N + 1)) for
// N = 2..200, the largest ratio 0.996 (tests/sched/oyang_bound_test.cc).
// The bound also holds for multi-zone disks (§3.2): zoning only skews the
// seek-target distribution, which cannot exceed that worst case.
#ifndef ZONESTREAM_SCHED_OYANG_BOUND_H_
#define ZONESTREAM_SCHED_OYANG_BOUND_H_

#include <vector>

#include "disk/seek_model.h"

namespace zonestream::sched {

// Worst-case total seek time of one SCAN sweep with `n` requests on a disk
// with `cylinders` cylinders. Returns 0 for n == 0 and the full-stroke
// seek time for n == 1 (one request means one arm movement — the
// equidistant (N+1)-segment form would charge an inter-stream seek a
// single stream never performs).
double OyangSeekBound(const disk::SeekTimeModel& seek_model, int cylinders,
                      int n);

// Total seek time of a sweep over explicitly given SCAN-ordered cylinder
// positions starting at `start_cylinder` — the exact quantity the bound
// dominates; exposed for property tests.
double TotalSeekTimeOfSweep(const disk::SeekTimeModel& seek_model,
                            const std::vector<int>& scan_ordered_cylinders,
                            int start_cylinder);

}  // namespace zonestream::sched

#endif  // ZONESTREAM_SCHED_OYANG_BOUND_H_
