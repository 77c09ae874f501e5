// Round-length planning (§2.3: the round length is "a configuration
// parameter of our architecture; changing it would require all data to be
// re-fragmented" — so it must be chosen well up front).
//
// Longer rounds amortize seek and rotational overhead (more streams per
// disk) but increase startup latency and client buffer demand linearly.
// This module evaluates a round length and sweeps the full trade-off
// curve (examples/capacity_planning.cpp prints it), using the fact that
// for a fixed stream bandwidth the fragment moments scale with t
// (fragments hold one round of display time).
#ifndef ZONESTREAM_CORE_ROUND_PLANNER_H_
#define ZONESTREAM_CORE_ROUND_PLANNER_H_

#include <vector>

#include "common/status.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"

namespace zonestream::core {

// Stream description for planning: a display bandwidth and its relative
// variability (per-round fragment CV stays constant as t changes).
struct PlannedStream {
  double bandwidth_bps = 0.0;        // bytes/second of display
  double coefficient_of_variation = 0.5;  // sd(fragment)/mean(fragment)
};

// QoS contract used by the planner (per-stream glitch-rate criterion,
// eq. 3.3.6, scaled to the session length).
struct PlannerQos {
  double session_s = 1800.0;     // stream lifetime
  double glitch_rate = 0.01;     // tolerated fraction of glitchy rounds
  double epsilon = 0.01;         // confidence threshold for p_error
};

// One evaluated operating point.
struct RoundPlan {
  double round_length_s = 0.0;
  int streams_per_disk = 0;
  double fragment_mean_bytes = 0.0;
  double startup_latency_s = 0.0;      // one round
  double client_buffer_bytes = 0.0;    // two 99.9-percentile fragments
};

// Evaluates a single round length. streams_per_disk is 0 when even one
// stream cannot be sustained.
common::StatusOr<RoundPlan> EvaluateRoundLength(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    const PlannedStream& stream, const PlannerQos& qos, double round_length_s);

// Full sweep over a list of round lengths (for tables and plots).
common::StatusOr<std::vector<RoundPlan>> SweepRoundLengths(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    const PlannedStream& stream, const PlannerQos& qos,
    const std::vector<double>& round_lengths_s);

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_ROUND_PLANNER_H_
