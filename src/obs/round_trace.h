// Structured per-round trace events — the measured-trace side of the
// paper's analytic bounds.
//
// Every simulator or server round appends one RoundTraceEvent per disk
// sweep: where the round's time went (seek / rotation / transfer /
// injected disturbance), how many requests hit which zones, and whether
// the round overran its deadline. The exporters in obs/export.h turn the
// recorded stream into JSON-lines or CSV for offline analysis against the
// Chernoff bounds.
#ifndef ZONESTREAM_OBS_ROUND_TRACE_H_
#define ZONESTREAM_OBS_ROUND_TRACE_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace zonestream::obs {

// One disk sweep. The decomposition identity
//   service_time_s == seek_s + rotation_s + transfer_s
//                     + disturbance_delay_s + fault_delay_s
// holds to floating-point roundoff for every event the simulators emit,
// overrun rounds included: every component is charged at its full length,
// so an overrun row's service_time_s exceeds the round and its leftover_s
// is 0 (RoundTraceImbalance measures the residual).
struct RoundTraceEvent {
  int64_t round = 0;      // round index within the emitting source
  int32_t source_id = 0;  // disk index / replication id (emitter-defined)
  int32_t num_requests = 0;
  double service_time_s = 0.0;
  double seek_s = 0.0;  // includes the return seek under one-directional SCAN
  double rotation_s = 0.0;
  double transfer_s = 0.0;
  double disturbance_delay_s = 0.0;  // injected i.i.d. disturbance delay
  int32_t disturbances = 0;          // requests that drew an injected delay
  double fault_delay_s = 0.0;        // delay injected by fault:: models
  int32_t faulted_requests = 0;      // requests that drew a fault delay
  int32_t glitches = 0;              // requests completing past the deadline
  bool overran = false;              // deadline missed (see emitter docs)
  bool disk_failed = false;          // whole-disk fault: nothing served
  int32_t truncated_requests = 0;    // requests left unserved (failed disk)
  double leftover_s = 0.0;           // idle time until the round boundary
  std::vector<int32_t> zone_hits;    // requests per zone, indexed by zone id
};

// Residual of the decomposition identity, service_time_s minus the summed
// components; |imbalance| should sit at floating-point roundoff for every
// simulator-emitted event (asserted by the trace tests).
double RoundTraceImbalance(const RoundTraceEvent& event);

// Bounded, thread-safe sink of RoundTraceEvents. When the capacity is
// reached new events are counted as dropped rather than overwriting old
// ones, so a snapshot is always a deterministic prefix of the run.
class RoundTraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  explicit RoundTraceRecorder(size_t capacity = kDefaultCapacity);

  RoundTraceRecorder(const RoundTraceRecorder&) = delete;
  RoundTraceRecorder& operator=(const RoundTraceRecorder&) = delete;

  // Appends one event (dropped once `capacity` events are stored).
  void Record(RoundTraceEvent event);

  // Copy of all recorded events, in record order.
  std::vector<RoundTraceEvent> Snapshot() const;

  size_t size() const;
  int64_t dropped() const;

  // Discards all recorded events (the drop counter resets too).
  void Clear();

 private:
  mutable std::mutex mutex_;
  size_t capacity_;
  std::vector<RoundTraceEvent> events_;
  int64_t dropped_ = 0;
};

}  // namespace zonestream::obs

#endif  // ZONESTREAM_OBS_ROUND_TRACE_H_
