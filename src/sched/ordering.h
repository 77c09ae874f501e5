// Intra-round service-order policies (ablation of the paper's SCAN
// choice, §2.3: "In order to minimize disk seeks, we use the SCAN
// algorithm") and the disk arm every round executor serves through.
//
// Within a round all requests share one deadline, so the order is free;
// the paper picks SCAN to minimize accumulated seek time. These
// alternatives quantify that choice:
//   * FCFS — issue order (equivalently, random order given random
//     placement): pays a full random seek per request;
//   * SSTF — greedy nearest-cylinder-first: close to SCAN on a single
//     batch but not worst-case bounded;
//   * C-SCAN — one-directional SCAN: pays a return seek every round;
//   * SCAN — the paper's elevator sweep (sched/scan.h).
#ifndef ZONESTREAM_SCHED_ORDERING_H_
#define ZONESTREAM_SCHED_ORDERING_H_

#include <cstddef>
#include <vector>

#include "disk/seek_model.h"
#include "sched/request.h"
#include "sched/scan.h"
#include "sched/scan_kernel.h"

namespace zonestream::sched {

// Service-order policy for one round's batch.
enum class ServicePolicy {
  kScan,   // elevator sweep, direction flips every round (the paper)
  kCScan,  // arm returns to cylinder 0, every sweep ascends
  kSstf,   // greedy shortest-seek-time-first from the current arm position
  kFcfs,   // issue order
};

// Writes to order[0, n) the greedy nearest-first service order of the
// requests at cylinder[0, n), the arm starting at `start_cylinder`.
// O(n^2), fine for round-sized batches.
void SstfOrder(const int* cylinder, size_t n, int start_cylinder, int* order);

// Reorders `requests` in place according to `policy`, given the arm's
// position at round start and (for SCAN) the sweep direction; C-SCAN sorts
// ascending. The struct reference for Arm.
void OrderRequests(std::vector<DiskRequest>* requests, ServicePolicy policy,
                   int start_cylinder, SweepDirection scan_direction);

// One disk's arm across rounds: its cylinder and the direction of its
// next SCAN sweep (initially cylinder 0, ascending).
class Arm {
 public:
  struct Round {
    double return_seek_s = 0.0;  // C-SCAN's seek back to cylinder 0
    size_t on_time = 0;          // leading positions done by the deadline
  };

  // Serves `batch` under `policy` on `kernel`, which then holds the sweep
  // (completions count from the end of the return seek). A request is on
  // time when return_seek_s + completion <= deadline_s. Unfinished
  // transfers are dropped at the deadline, so the arm rests on the last
  // on-time request (or stays put), and the direction flips.
  Round Serve(const disk::SeekTimeModel& seek, const ScanBatch& batch,
              ServicePolicy policy, double deadline_s, ScanKernel* kernel);

  // Serves `batch` under SCAN or C-SCAN without sorting or sweeping it
  // when a seek bound proves every request on time, and returns true with
  // the arm where Serve would leave it: on the sweep's last cylinder (the
  // batch's largest when ascending, smallest when descending), the
  // direction flipped. The sweep makes n hops over a total distance D —
  // |arm - first cylinder| + (max - min) for SCAN, the largest cylinder
  // for C-SCAN after its return seek — so by Jensen its seeks take at most
  // n * SeekTimeMajorant(D / n), and the round is on time when
  // return_seek_s + that + sum rotation_s + sum transfer fits the deadline
  // less a relative margin for rounding. Returns false, changing nothing,
  // when the bound does not fit or `policy` is SSTF or FCFS; the caller
  // then serves the round with Serve. Reads no kernel, so a certified
  // round leaves no sweep behind.
  bool ServeCertified(const disk::SeekTimeModel& seek, const ScanBatch& batch,
                      ServicePolicy policy, double deadline_s);

  // A round the disk does not serve: only the direction flips.
  void Skip() { ascending_ = !ascending_; }

  void Reset(int cylinder, bool ascending) {
    cylinder_ = cylinder;
    ascending_ = ascending;
  }
  // Moves the arm between rounds (a leftover-time service window).
  void MoveTo(int cylinder) { cylinder_ = cylinder; }

  int cylinder() const { return cylinder_; }
  bool ascending() const { return ascending_; }

 private:
  int cylinder_ = 0;
  bool ascending_ = true;
  std::vector<int> order_;  // SSTF/FCFS permutation, reused across rounds
};

}  // namespace zonestream::sched

#endif  // ZONESTREAM_SCHED_ORDERING_H_
