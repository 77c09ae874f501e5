// Detailed round-by-round simulation of one disk (§4).
//
// This is the validation substrate: every round, each of the N streams
// requests one fragment at a position sampled uniformly over the disk's
// stored bytes (zone with probability C_i/C, cylinder uniform within the
// zone) or under another configured placement, with a uniform rotational
// latency and a zone-rate transfer. The requests are served in one sweep
// of the disk arm (sched::Arm) in the configured service order — SCAN,
// the paper's, by default; fragments that would complete after the round
// deadline are glitches for their streams.
#ifndef ZONESTREAM_SIM_ROUND_SIMULATOR_H_
#define ZONESTREAM_SIM_ROUND_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "disk/disk_geometry.h"
#include "disk/placement.h"
#include "disk/seek_model.h"
#include "disk/zone_position_sampler.h"
#include "fault/fault_model.h"
#include "numeric/statistics.h"
#include "sched/ordering.h"
#include "sched/scan_kernel.h"
#include "workload/fragment_source.h"
#include "workload/size_distribution.h"

namespace zonestream::obs {
class Counter;
class Histogram;
class Registry;
class RoundTraceRecorder;
}  // namespace zonestream::obs

namespace zonestream::sim {

// Creates the per-stream fragment-size source; called once per stream at
// simulator construction. Stream ids are 0-based.
using FragmentSourceFactory =
    std::function<std::unique_ptr<workload::FragmentSource>(int stream_id)>;

// Failure injection: with `probability` per request, an extra service
// delay uniform in [delay_min_s, delay_max_s] is added — modeling the
// sporadic disturbances real drives exhibit (thermal recalibration,
// bad-block remapping, bus contention) that the paper's model ignores.
// The analytic model can be re-armored against a known disturbance by
// folding its moments into the transfer time (see
// round_simulator_test.cc::DisturbanceRobustness tests).
//
// Disturbances are drawn from a dedicated RNG substream, so enabling them
// perturbs only the injected delays: the request positions, sizes and
// rotational latencies stay bit-identical to the undisturbed run with the
// same seed (see DisturbanceTest.ConstantDelayShiftsRoundsByExactlyNDelay).
// RoundSimulator::Create rejects a probability outside [0, 1] and delays
// outside 0 <= delay_min_s <= delay_max_s.
struct DisturbanceConfig {
  double probability = 0.0;   // per-request disturbance probability
  double delay_min_s = 0.0;
  double delay_max_s = 0.0;   // uniform delay in [min, max]
};

// Simulation knobs.
struct SimulatorConfig {
  double round_length_s = 1.0;
  uint64_t seed = 42;
  // Service order and arm policy (the paper uses SCAN; C-SCAN, SSTF and
  // FCFS support the scheduling ablation).
  sched::ServicePolicy policy = sched::ServicePolicy::kScan;
  // Where fragments are stored (disk/placement.h): uniform over capacity,
  // the paper's placement, by default; outer zones only or Birk's track
  // pairs otherwise. Create rejects one PlacementModel::Create rejects.
  disk::PlacementConfig placement;
  DisturbanceConfig disturbance;  // default: none

  // Structured fault injection (fault/fault_model.h): Markov-modulated
  // slowdown epochs, zone dropouts with remapped rates, correlated
  // per-request delay bursts, whole-disk failure. Each configured model
  // draws from a dedicated RNG substream derived from `seed`, so the
  // empty default consumes no randomness and leaves every run
  // bit-identical to a fault-free build; adding one model never perturbs
  // another's draws. On a disk-failed round the requests are still drawn
  // (stream sources advance; main-stream consumption stays a pure
  // function of the round index) but nothing is served: every stream
  // glitches and the trace event carries disk_failed = true.
  fault::FaultSpec faults;

  // Deadline-cut accounting for the per-round trace. The physical disk
  // stops at the round boundary, so a trace row claiming more busy time
  // than the round holds is an accounting fiction. With this set, trace
  // events charge each component at its truncated length — the straddling
  // request is cut mid-phase in service order (seek, rotation,
  // disturbance, fault delay, transfer) and later requests are charged
  // zero — so service_time_s <= round_length_s always, the decomposition
  // identity still holds exactly, and truncated_requests counts the cut
  // plus skipped requests. RoundOutcome (and thus every estimator,
  // glitch set, arm dynamic and RNG draw) still uses the untruncated
  // hypothetical sweep time, so enabling this changes trace accounting
  // only. Default off, preserving the historical trace values.
  bool truncate_at_deadline = false;

  // Optional observability hooks (not owned; null = disabled). `metrics`
  // receives counters/histograms under the "sim." prefix and `trace` one
  // obs::RoundTraceEvent per round with source_id `trace_source_id`; both
  // must be thread-safe when shared across replications. Metric names are
  // listed in docs/OBSERVABILITY.md.
  obs::Registry* metrics = nullptr;
  obs::RoundTraceRecorder* trace = nullptr;
  int trace_source_id = 0;
};

// Outcome of one simulated round.
struct RoundOutcome {
  double total_service_time_s = 0.0;  // full-sweep time T_N
  bool overran = false;               // T_N > round length
  std::vector<int> glitched_streams;  // streams whose fragment missed t
};

// Lateness of one simulated round: what the late, glitch and error
// estimators read of it (RoundSimulator::RunRoundLateness).
struct RoundLateness {
  bool overran = false;               // T_N > round length
  std::vector<int> glitched_streams;  // streams whose fragment missed t
};

// Aggregate estimate of a probability with a confidence interval (Wilson,
// or cluster-robust where samples are correlated — see each estimator).
struct ProbabilityEstimate {
  double point = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  int64_t trials = 0;
};

// Complete restartable state of a RoundSimulator: both RNG positions
// (main + disturbance substream), the fault injector (when configured),
// the arm state, the round counter, and each stream source's cross-round
// state. Restoring it onto a simulator freshly Created with the same
// (geometry, seek, num_streams, factory, config) continues the run
// bit-identically.
struct RoundSimulatorState {
  std::string rng_state;              // numeric::Rng::SaveState
  std::string disturbance_rng_state;  // ditto, dedicated substream
  bool has_fault_injector = false;
  fault::FaultInjectorState fault_injector;
  int arm_cylinder = 0;
  bool ascending = true;
  int64_t rounds_run = 0;
  std::vector<std::vector<uint64_t>> source_states;  // one per stream
};

// Single-disk round simulator. Not thread-safe; use one per thread with
// distinct seeds.
//
// A round draws in whole-round batches from the main stream — the 2n
// position uniforms (zones through the placement's zone law, then
// cylinders within the zone; disk/zone_position_sampler.h), the n sizes, then
// the n rotational latencies — into structure-of-arrays scratch reused
// across rounds, and serves them through sched::Arm on sched::ScanKernel.
// Disturbance and fault draws use dedicated substreams.
class RoundSimulator {
 public:
  // `num_streams` streams draw sizes from `source_factory` (pass
  // IidFactory(dist) for the model-matching i.i.d. workload).
  static common::StatusOr<RoundSimulator> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      int num_streams, const FragmentSourceFactory& source_factory,
      const SimulatorConfig& config);

  // Convenience factory for i.i.d. draws from a shared distribution.
  static FragmentSourceFactory IidFactory(
      std::shared_ptr<const workload::SizeDistribution> distribution);

  // Simulates one round and returns its outcome.
  RoundOutcome RunRound();

  // Simulates one round exactly as RunRound does and returns its lateness:
  // the same draws, the same arm afterwards, and overran and
  // glitched_streams equal to RunRound's bit for bit. What it skips is the
  // sort and the sweep of a round that sched::Arm::ServeCertified proves
  // on time (a concave bound on the sweep's seeks), which then has no T_N
  // to report. It runs RunRound's full path with metrics or trace hooks
  // attached (they need the breakdown), under SSTF or FCFS, and whenever
  // the bound fails.
  RoundLateness RunRoundLateness();

  // Estimates p_late = P[T_N >= t] over `rounds` simulated rounds
  // (Figure 1's simulated series). Rounds are independent, so the CI is a
  // plain Wilson interval.
  ProbabilityEstimate EstimateLateProbability(int rounds);

  // Estimates p_glitch = P[a given stream glitches in a round] by counting
  // (stream, round) glitch events over `rounds` rounds. The events of one
  // round are correlated (one slow sweep glitches many streams at once),
  // so the CI clusters by round: the per-round glitch fraction is the
  // i.i.d. sample (numeric::ClusteredProportionInterval).
  ProbabilityEstimate EstimateGlitchProbability(int rounds);

  // Estimates p_error = P[a stream suffers >= g glitches in m rounds] over
  // `lifetimes` independent m-round stream lifetimes (each lifetime batch
  // yields num_streams samples — Table 2's simulated series). The
  // num_streams samples of one lifetime share the same m simulated
  // rounds, so the CI clusters by lifetime (same estimator as
  // EstimateGlitchProbability).
  ProbabilityEstimate EstimateErrorProbability(int m, int g, int lifetimes);

  // Collects `rounds` total-service-time samples (for distribution-level
  // validation of the transform).
  numeric::RunningStats SampleServiceTimes(int rounds);

  int num_streams() const { return num_streams_; }
  const SimulatorConfig& config() const { return config_; }
  int64_t rounds_run() const { return rounds_run_; }

  // True when the simulator holds no cross-round state outside its RNG
  // streams and the arm position — every stream on one shared i.i.d.
  // size distribution and no fault injector. Replication drivers may
  // then rewind one instance per shard with ResetForReplication()
  // instead of paying a full construction (sources, scratch, metric
  // resolution) per replication.
  bool SupportsReplicationReset() const {
    return shared_iid_ != nullptr && fault_injector_ == nullptr;
  }

  // Rewinds to the state of a freshly-constructed simulator whose config
  // seed is `seed` and trace source id is `trace_source_id`: both RNG
  // substreams restart, the arm returns to cylinder 0, the sweep to
  // ascending, the round counter to zero. Requires
  // SupportsReplicationReset(); round outcomes after the reset are
  // bit-identical to a new instance's.
  void ResetForReplication(uint64_t seed, int trace_source_id);

  // Checkpoint support: see RoundSimulatorState. ImportState validates
  // shape (stream count, arm cylinder in range, fault presence matching
  // the config) before mutating anything it can avoid mutating.
  RoundSimulatorState ExportState() const;
  common::Status ImportState(const RoundSimulatorState& state);

 private:
  // Metric handles resolved once at construction (see docs/OBSERVABILITY.md
  // for the name schema).
  struct Metrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* glitches = nullptr;
    obs::Counter* overruns = nullptr;
    obs::Counter* disturbances = nullptr;
    obs::Histogram* service_time_s = nullptr;
    obs::Histogram* seek_s = nullptr;
    obs::Histogram* rotation_s = nullptr;
    obs::Histogram* transfer_s = nullptr;
    std::vector<obs::Counter*> zone_hits;
  };

  // Structure-of-arrays scratch for the round, sized once at
  // construction and reused every round. zone_hits doubles as the
  // preallocated per-round zone tally for the observability hooks.
  struct RoundScratch {
    // Position-draw uniforms, one contiguous block of 2n so the round
    // fills them with a single engine pass: zone draws in [0, n),
    // cylinder draws in [n, 2n) — the same words, in the same order, as
    // the former back-to-back per-array fills.
    std::vector<double> u_pos;
    std::vector<int> cylinder;
    std::vector<int> zone;
    std::vector<double> rate_bps;
    std::vector<double> bytes;
    std::vector<double> rotation_s;    // rotational latency + injected delay
    // The shared sweep (sched/scan_kernel.h): order, per-position
    // seek/transfer times and completion clock of the current round.
    sched::ScanKernel sweep;
    std::vector<int32_t> zone_hits;    // per-zone tallies, reset each round
    // Per-stream injected delays, tracked only when truncate_at_deadline
    // needs the phase-level breakdown of the cut request.
    std::vector<double> dist_delay_s;
    std::vector<double> fault_delay_s;
  };

  // Per-round component sums handed to the observability sink.
  struct RoundBreakdown {
    double seek_s = 0.0;
    double rotation_s = 0.0;  // base rotation, injected delays excluded
    double transfer_s = 0.0;
    double disturbance_delay_s = 0.0;
    int disturbances = 0;
    double fault_delay_s = 0.0;
    int faulted_requests = 0;
    bool disk_failed = false;
    int truncated_requests = 0;
    // Trace-facing service time; equals the outcome's untruncated sweep
    // time unless truncate_at_deadline clipped it to the round length.
    double service_time_s = 0.0;
  };

  RoundSimulator(const disk::DiskGeometry& geometry,
                 const disk::SeekTimeModel& seek, int num_streams,
                 std::vector<std::unique_ptr<workload::FragmentSource>> sources,
                 std::unique_ptr<fault::FaultInjector> fault_injector,
                 const disk::PlacementModel& placement,
                 const SimulatorConfig& config);

  // What a round's draws tally for the observability hooks.
  struct DrawnRound {
    bool disk_failed = false;
    int disturbances = 0;
    double disturbance_delay_s = 0.0;
    int faulted_requests = 0;
    double fault_delay_s = 0.0;
  };

  // The round in two halves: every draw of the round into scratch_, then
  // its service (sweep, outcome, observability). Faults must have begun
  // the round.
  DrawnRound DrawRound();
  RoundOutcome ServeRound(const DrawnRound& drawn);
  // The drawn round as the SCAN kernel's batch.
  sched::ScanBatch ScratchBatch() const;

  // Completes a round on a failed disk: requests were drawn (the caller
  // tallied scratch_.zone_hits) but nothing is served — every stream
  // glitches and the trace event carries disk_failed = true.
  RoundOutcome FinishDiskFailedRound();

  // Rewrites `breakdown` so every component is charged at its truncated
  // length against the round deadline (see truncate_at_deadline). The
  // arrays hold the n positions in service order; injected delays are read
  // back per stream id from the scratch delay arrays.
  void TruncateBreakdown(RoundBreakdown* breakdown, const int* order,
                         const double* seek_by_pos,
                         const double* rotation_by_pos,
                         const double* transfer_by_pos, size_t n,
                         double return_seek_s) const;

  // Emits the per-round trace event and metric updates. Zone tallies are
  // read from scratch_.zone_hits, which the caller must have filled.
  void EmitRoundObservability(const RoundOutcome& outcome,
                              const RoundBreakdown& breakdown);

  disk::DiskGeometry geometry_;
  // The batched position draw over config_.placement's zone law.
  disk::ZonePositionSampler positions_;
  disk::SeekTimeModel seek_;
  int num_streams_;
  std::vector<std::unique_ptr<workload::FragmentSource>> sources_;
  SimulatorConfig config_;
  numeric::Rng rng_;
  numeric::Rng disturbance_rng_;
  // Null when config_.faults is empty (the common case).
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  sched::Arm arm_;
  int64_t rounds_run_ = 0;
  std::optional<Metrics> metrics_;
  // Non-null iff every stream draws i.i.d. from this one distribution, in
  // which case a round pulls its sizes in one FillSamples() call.
  const workload::SizeDistribution* shared_iid_ = nullptr;
  RoundScratch scratch_;
};

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_ROUND_SIMULATOR_H_
