// Rare-event acceleration by importance sampling (exponential tilting).
//
// The validation experiments need tail probabilities down to p ~ 1e-6
// (Table 2's deep rows); naive Monte Carlo needs >= 100/p rounds for a
// usable confidence interval, which is ~1e8 rounds at 1e-6. This module
// simulates the same round model as RoundSimulator, but
// under an exponentially tilted measure that makes late rounds common,
// and corrects each round with its exact likelihood ratio:
//
//   - Rotational latencies U(0, ROT) are drawn from the tilted density
//     f_theta(x) ∝ e^{theta x} on [0, ROT] by the inverse CDF
//     log1p(u (e^{theta ROT} - 1)) / theta, whose log1p is
//     numeric::Log1p (numeric/log1p.h: fdlibm's algorithm, bit-identical
//     on every SIMD tier, within 1 ulp of libm's), not std::log1p.
//   - The (zone, transfer) pair is tilted jointly: zones are drawn from
//     p~_z ∝ p_z (1 - theta s_z)^{-k} (a one-time tilted alias table over
//     the placement's zone law: p_z its weight and R_z its rate on zone z,
//     s_z = scale/R_z the zone's transfer-time Gamma scale) and the
//     transfer time given zone z from Gamma(k, s_z / (1 - theta s_z)).
//     The joint likelihood ratio collapses to M_trans(theta) e^{-theta T}
//     independent of the zone, so the per-round log weight is
//
//       log w = n psi(theta) - theta (sum rot_i + sum trans_i)
//
//     with psi(theta) = log M_rot(theta) + log M_trans(theta) the exact
//     per-request cumulant generating function (cylinder-within-zone and
//     seek times are untilted and cancel).
//   - Optionally the sporadic-disturbance mixture is tilted the same way
//     (Bernoulli probability and uniform delay both shifted), adding
//     n log M_dist(theta) - theta sum d_i to the weight.
//
// E[w I] under the tilted measure equals P[event] exactly, so the
// Horvitz-Thompson estimator (1/N) sum w_r I_r is unbiased for any
// theta in [0, theta_max); theta = 0 degenerates to naive Monte Carlo
// with all weights exactly 1. The optimal theta is (nearly) the Chernoff
// minimizer theta* of the analytic service-time model — the same number
// core::ChernoffResult::theta_star already reports — which
// AutoTiltParameter() derives; at that tilt the late event has O(1)
// probability and N ~ 1e5 rounds resolve p ~ 1e-6 with a few-percent CI.
//
// Samples must be i.i.d. for that identity to hold: the arm position a
// round inherits from its predecessor is part of the round's law, and
// under tilted *predecessor* draws it is biased in a way the current
// round's weight cannot see (a few milliseconds of first-seek bias,
// amplified by e^{theta dt}, was measurable as a theta-dependent drift).
// Each RunRound() sample therefore restarts from the reset arm state and
// optionally replays nominal_warmup_rounds untilted rounds to put the
// arm in its free-running nominal distribution before the tilted round
// is measured.
//
// Variance-reduction extras: antithetic pairing (odd rounds reuse the
// even round's position/rotation uniforms reflected u -> 1-u) and
// proportional stratification of the leading rotation uniform.
#ifndef ZONESTREAM_SIM_IMPORTANCE_SAMPLING_H_
#define ZONESTREAM_SIM_IMPORTANCE_SAMPLING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "disk/alias_table.h"
#include "disk/disk_geometry.h"
#include "disk/placement.h"
#include "disk/seek_model.h"
#include "disk/zone_position_sampler.h"
#include "numeric/random.h"
#include "sched/ordering.h"
#include "sched/scan_kernel.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {

// Tuning of one importance-sampled estimation run.
struct ImportanceSamplingOptions {
  // Tilt parameter theta (1/seconds). 0 selects AutoTiltParameter() — the
  // analytic Chernoff minimizer for the configured deadline under SCAN —
  // inside the estimators, which reject it under FCFS; negative is
  // invalid. Values at or above the sampler's theta_max() are rejected.
  double theta = 0.0;
  // Report the self-normalized estimator sum(w I)/sum(w) instead of the
  // unbiased Horvitz-Thompson mean (1/N) sum(w I). Self-normalization
  // trades a O(1/N) bias for lower variance when weights are noisy.
  bool self_normalized = false;
  // Antithetic pairing: odd rounds reflect the previous round's position
  // and rotation uniforms (u -> 1-u). Requires an even number of rounds
  // per replication.
  bool antithetic = false;
  // Proportional stratification of the leading rotation uniform into this
  // many equal strata, cycled deterministically across the rounds of a
  // replication. Requires strata >= 1 and the per-replication round count
  // (pair count when antithetic) to be a multiple of it.
  int strata = 1;
  // Tilt the disturbance mixture too (only meaningful when the simulator
  // config enables disturbances). Off leaves disturbances at their
  // nominal law — still correct, the likelihood ratio of an untilted
  // component is 1 — but deep tails driven by disturbances then stay rare.
  bool tilt_disturbance = true;
  // Untilted rounds run before each measured round to place the arm.
  // Every sample starts from the reset arm state (cylinder 0, ascending);
  // with 0 warm-ups the estimand is the first-round-from-reset tail, with
  // w >= 1 it is the (w+1)-th round's — which matches the free-running
  // RoundSimulator's stationary path average, since the arm chain mixes
  // in essentially one sweep (the sweep's end cylinder is an extreme of
  // the round's own draws, nearly independent of where the arm started).
  // Warm-up rounds carry no weight terms; they cost one untilted round
  // each. See the file comment on why samples must be i.i.d. at all.
  int nominal_warmup_rounds = 1;
  // Two-sided confidence level of the reported interval.
  double confidence = 0.95;
};

// A weighted tail-probability estimate and its sampling diagnostics.
struct ImportanceSampleEstimate {
  double point = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  int64_t rounds = 0;       // tilted rounds simulated
  double theta = 0.0;       // tilt actually used
  // Effective sample size (sum w)^2 / sum w^2 — how many naive rounds the
  // weighted sample is worth for mean estimation. A collapsed ESS (<< N)
  // flags an over-aggressive tilt.
  double ess = 0.0;
  double weight_mean = 0.0;      // should be ~1: E[w] = 1 exactly
  double weight_variance = 0.0;  // sample variance of the weights
};

// Deep-tail p_error estimate: the binomial lifetime tail
// P[stream suffers >= g glitches in m rounds] evaluated at the
// importance-sampled per-round glitch probability, with the CI endpoints
// mapped through the same (monotone) binomial tail.
struct ErrorProbabilityISEstimate {
  ImportanceSampleEstimate glitch;  // the underlying p_glitch estimate
  double point = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  int m = 0;
  int g = 0;
};

// One i.i.d. sample: the measured tilted round (after its nominal
// warm-up rounds, whose outcomes are not reported).
struct TiltedRoundOutcome {
  double total_service_time_s = 0.0;
  bool overran = false;
  int glitched_streams = 0;
  double log_weight = 0.0;  // log likelihood ratio dP/dP~ of the round
};

// Derives the tilt parameter from the analytic model: the Chernoff
// minimizer theta* of P[T_n >= round_length] under the moment-matched
// multi-zone service-time model (core/service_time_model.h), clamped
// inside the simulator's exact admissible domain. Returns 0 (no tilt)
// when the deadline is not in the right tail (the event is not rare and
// naive sampling is already efficient).
common::StatusOr<double> AutoTiltParameter(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const workload::SizeDistribution& sizes,
    double round_length_s);

// Tilted mirror of RoundSimulator's round. Not thread-safe; use one per
// thread (ReplicatedIS* below shard exactly like replication.h).
//
// Any service policy and any placement (config.placement): the order is a
// function of the weighted draws, and the tilt reweights the placement's
// zone law. Restrictions (InvalidArgument otherwise): Gamma fragment
// sizes (the closed-form tilt needs the Gamma family), a valid placement,
// and no structured faults. AutoTiltParameter models the uniform
// placement, so its tilt stays admissible (below the innermost zone's
// pole) but is not tuned to another placement; pass an explicit theta
// there. The estimators below also reject the auto tilt (theta == 0)
// under FCFS: AutoTiltParameter models SCAN's service time, whose tail is
// far deeper than FCFS's. At N = 26 its tilt gave FCFS a confidence
// interval no narrower than naive sampling's, and the weights' ESS, which
// does not depend on the policy, read the same as under SCAN, so nothing
// showed it. FCFS needs an explicit, smaller theta.
class ImportanceSampler {
 public:
  static common::StatusOr<ImportanceSampler> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      int num_streams,
      std::shared_ptr<const workload::SizeDistribution> sizes,
      const SimulatorConfig& config,
      const ImportanceSamplingOptions& options);

  // Draws one i.i.d. sample: resets the arm, replays the configured
  // nominal warm-up rounds, then simulates and returns the tilted
  // measured round with its likelihood ratio. E[exp(log_weight) * f] over
  // samples equals the nominal expectation of f for any per-round
  // statistic f, at every theta.
  TiltedRoundOutcome RunRound();

  // Rewinds to a freshly-created sampler seeded with `seed` (the
  // replication-sharding hook, mirroring
  // RoundSimulator::ResetForReplication).
  void ResetForReplication(uint64_t seed);

  // Supremum of the admissible tilt: min_z R_z / scale over the zones the
  // placement draws, the slowest one's Gamma-MGF pole (1/seconds).
  double theta_max() const { return theta_max_; }
  double theta() const { return theta_; }
  int num_streams() const { return num_streams_; }
  // Exact per-request log MGF psi(theta) at the configured tilt
  // (rotation + zone/transfer + tilted disturbance when enabled).
  double per_request_log_mgf() const { return psi_; }

 private:
  ImportanceSampler(const disk::DiskGeometry& geometry,
                    const disk::SeekTimeModel& seek, int num_streams,
                    double shape, double scale,
                    const disk::PlacementModel& placement,
                    const SimulatorConfig& config,
                    const ImportanceSamplingOptions& options);

  // u -> 1-u clamped into [0, 1) (antithetic reflection; 1-u can hit 1.0
  // exactly, which the alias table and the cylinder offset must not see).
  static double Reflect(double u);

  // Simulates one round from the current arm state using the uniforms at
  // u_pos[0..2n) / u_rot[0..n) and the Gamma(k, 1) draws at
  // unit_gamma[0..n) (slices of scratch_.u_all and scratch_.unit_gamma).
  // `tilted` selects the tilted or nominal zone/rotation/transfer/
  // disturbance laws; a tilted round also sets outcome->log_weight.
  // Disturbance draws are consumed from their engine either way. A warm-up
  // (untilted) round that sched::Arm::ServeCertified proves on time moves
  // the arm without a sweep and leaves `outcome` alone; the measured
  // (tilted) round always sweeps and sets it.
  void RunOneRound(const double* u_pos, const double* u_rot,
                   const double* unit_gamma, bool tilted,
                   TiltedRoundOutcome* outcome);

  disk::DiskGeometry geometry_;
  disk::SeekTimeModel seek_;
  int num_streams_;
  double shape_;  // fragment-size Gamma shape k
  double scale_;  // fragment-size Gamma scale s (bytes)
  SimulatorConfig config_;
  ImportanceSamplingOptions options_;
  numeric::Rng rng_;
  numeric::Rng disturbance_rng_;
  numeric::GammaBatchSampler unit_gamma_;  // Gamma(k, 1) batch source

  double theta_ = 0.0;
  double theta_max_ = 0.0;
  double psi_ = 0.0;            // per-request log MGF at theta_
  double rot_expm1_ = 0.0;      // expm1(theta * ROT) for the inverse CDF
  double log_mgf_rot_ = 0.0;
  double log_mgf_trans_ = 0.0;
  double log_mgf_dist_ = 0.0;   // 0 unless disturbances are tilted
  bool tilt_disturbance_ = false;
  double tilted_dist_probability_ = 0.0;
  double dist_expm1_ = 0.0;     // expm1(theta * (max - min)) for delays
  // Position draws under the placement's zone law (warm-up rounds) and
  // the tilted one (measured rounds).
  disk::ZonePositionSampler nominal_positions_;
  disk::ZonePositionSampler tilted_positions_;
  // Per-zone transfer-time Gamma scales multiplied onto unit Gamma(k, 1)
  // draws: nominal s_z = s/R_z at the placement's zone rates (warm-up
  // rounds) and tilted
  // s_z / (1 - theta s_z) (measured rounds).
  std::vector<double> nominal_time_scale_;
  std::vector<double> tilted_time_scale_;

  // "sim.is.*" metric handles (null when config.metrics is unset).
  obs::Counter* is_rounds_ = nullptr;
  obs::Counter* is_overruns_ = nullptr;
  obs::Histogram* is_log_weight_ = nullptr;

  sched::Arm arm_;  // serves config_.policy; reset at each sample
  int64_t samples_run_ = 0;

  // Per-round scratch, sized once.
  struct Scratch {
    // (warmup + 1) * 3n uniforms, filled in one engine pass per fresh
    // sample; round r owns [r*3n, (r+1)*3n): 2n position draws (zones
    // then cylinders) followed by n rotation draws. Antithetic odd
    // samples reflect the whole block in place.
    std::vector<double> u_all;
    std::vector<int> zone;
    std::vector<int> cylinder;
    // (warmup + 1) * n Gamma(k, 1) draws, filled in one batch per
    // sample right after the uniforms; round r owns [r*n, (r+1)*n).
    std::vector<double> unit_gamma;
    std::vector<double> rotation_s;  // tilted latency + disturbance delay
    std::vector<double> transfer_time_s;
    sched::ScanKernel sweep;  // the shared sweep (sched/scan_kernel.h)
  };
  Scratch scratch_;
};

// Replicated importance-sampled estimators, sharded exactly like
// replication.h: replication r is seeded with SubstreamSeed(base_seed, r),
// runs rounds_per_replication tilted rounds, and the weighted tallies are
// reduced in replication order — bit-identical at every thread count.
//
// `config` and `sizes` obey ImportanceSampler::Create's restrictions.
// options.theta == 0 derives the tilt with AutoTiltParameter once and
// shares it across replications; under FCFS it is InvalidArgument (see
// ImportanceSampler).

// P[T_N >= round_length] (the late/overrun probability).
common::StatusOr<ImportanceSampleEstimate> EstimateLateProbabilityIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options);

// P[a given stream glitches in a round]: the weighted mean of the
// per-round glitch fraction.
common::StatusOr<ImportanceSampleEstimate> EstimateGlitchProbabilityIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options);

// P[stream suffers >= g glitches in m rounds] = BinomialTailExact(m,
// p_glitch, g) at the importance-sampled p_glitch (eq. 3.3.4 with the
// simulated per-round probability). Both CI endpoints are mapped through
// the monotone binomial tail.
common::StatusOr<ErrorProbabilityISEstimate> EstimateErrorProbabilityIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int m, int g, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options);

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_IMPORTANCE_SAMPLING_H_
