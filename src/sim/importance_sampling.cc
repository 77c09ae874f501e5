#include "sim/importance_sampling.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "numeric/log1p.h"
#include "numeric/special_functions.h"
#include "obs/metrics.h"

namespace zonestream::sim {

namespace {

// Same disturbance substream index as RoundSimulator, so a theta == 0
// sampler consumes both streams exactly like the simulator's round.
constexpr uint64_t kDisturbanceSubstream = 0x64697374;  // "dist"

// Keep the tilt strictly inside the admissible domain: at theta ->
// theta_max the innermost zone's tilted Gamma scale diverges and the
// weights blow up. The analytic theta* always sits below the pole, but
// the moment-matched model's pole can differ slightly from the exact
// mixture's, so the clamp is a real guard, not just belt-and-braces.
constexpr double kThetaMaxMargin = 0.95;

// Untilted rounds run before each measured round to place the arm. Every
// sample starts from the reset arm state (cylinder 0, ascending); after
// one warm-up the estimand is the second round's tail, which matches the
// free-running RoundSimulator's stationary path average, since the arm
// chain mixes in essentially one sweep (the sweep's end cylinder is an
// extreme of the round's own draws, nearly independent of where the arm
// started). A warm-up carries no weight terms and costs one untilted
// round. See the header on why samples must be i.i.d. at all.
constexpr int kNominalWarmupRounds = 1;

// log of the uniform-on-[0,len] MGF, log((e^{theta len} - 1)/(theta len)),
// evaluated stably (len > 0, theta > 0).
double UniformLogMgf(double theta, double len) {
  const double x = theta * len;
  return std::log(std::expm1(x)) - std::log(x);
}

common::Status ValidateConfig(const SimulatorConfig& config,
                              const ImportanceSamplingOptions& options) {
  if (config.round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  if (!config.faults.empty()) {
    return common::Status::InvalidArgument(
        "importance sampling does not support structured fault injection");
  }
  if (options.theta < 0.0) {
    return common::Status::InvalidArgument("theta must be non-negative");
  }
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return common::Status::InvalidArgument("confidence must be in (0, 1)");
  }
  const DisturbanceConfig& disturbance = config.disturbance;
  if (disturbance.probability < 0.0 || disturbance.probability > 1.0 ||
      disturbance.delay_min_s > disturbance.delay_max_s ||
      disturbance.delay_min_s < 0.0) {
    return common::Status::InvalidArgument("invalid disturbance config");
  }
  return common::Status::Ok();
}

const workload::GammaSizeDistribution* AsGamma(
    const workload::SizeDistribution* sizes) {
  return dynamic_cast<const workload::GammaSizeDistribution*>(sizes);
}

// The slowest rate the placement draws; the tilt's pole is this rate over
// the Gamma scale. Under uniform placement it is the innermost zone's.
double MinPlacedRate(const disk::PlacementModel& placement) {
  return *std::min_element(placement.rates().begin(),
                           placement.rates().end());
}

}  // namespace

common::StatusOr<double> AutoTiltParameter(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, const workload::SizeDistribution& sizes,
    double round_length_s) {
  if (num_streams <= 0) {
    return common::Status::InvalidArgument("num_streams must be positive");
  }
  if (round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      geometry, seek, sizes.mean(), sizes.variance());
  if (!model.ok()) return model.status();
  const core::ChernoffResult bound =
      model->LateBound(num_streams, round_length_s);
  if (bound.theta_star <= 0.0) return 0.0;  // not a right-tail event
  // The exact simulator-side pole is the innermost zone's: R_min / scale.
  const double scale = sizes.variance() / sizes.mean();
  const double exact_theta_max = geometry.MinTransferRate() / scale;
  return std::min(bound.theta_star, kThetaMaxMargin * exact_theta_max);
}

ImportanceSampler::ImportanceSampler(const disk::DiskGeometry& geometry,
                                     const disk::SeekTimeModel& seek,
                                     int num_streams, double shape,
                                     double scale,
                                     const disk::PlacementModel& placement,
                                     const SimulatorConfig& config,
                                     double theta)
    : geometry_(geometry),
      seek_(seek),
      num_streams_(num_streams),
      shape_(shape),
      scale_(scale),
      config_(config),
      rng_(config.seed),
      disturbance_rng_(
          numeric::SubstreamSeed(config.seed, kDisturbanceSubstream)),
      unit_gamma_(shape, 1.0),
      theta_(theta) {
  theta_max_ = MinPlacedRate(placement) / scale_;
  // The nominal law, the tilted one and both time-scale columns all read
  // the placement's zone law: weight p_z and rate R_z per zone, s_z =
  // s / R_z the zone's transfer-time Gamma scale.
  const std::vector<double>& weights = placement.zone_weights();
  const std::vector<double>& rates = placement.zone_rates();
  const int zones = geometry_.num_zones();
  nominal_time_scale_.resize(zones);
  for (int z = 0; z < zones; ++z) nominal_time_scale_[z] = scale_ / rates[z];
  nominal_positions_ = disk::ZonePositionSampler(
      geometry_, disk::AliasTable::Build(weights), rates);
  if (theta_ > 0.0) {
    rot_expm1_ = std::expm1(theta_ * geometry_.rotation_time());
    log_mgf_rot_ = UniformLogMgf(theta_, geometry_.rotation_time());
    // M_trans(theta) = sum_z p_z (1 - theta s_z)^{-k}; the tilted zone law
    // weights each zone by its own MGF factor. A zone the placement never
    // draws keeps weight 0 and its nominal scale (its pole may lie below
    // theta).
    std::vector<double> tilted_weights(zones, 0.0);
    tilted_time_scale_ = nominal_time_scale_;
    double mgf_trans = 0.0;
    for (int z = 0; z < zones; ++z) {
      if (weights[z] == 0.0) continue;
      const double s_z = nominal_time_scale_[z];
      const double pole = 1.0 - theta_ * s_z;
      ZS_CHECK_GT(pole, 0.0);
      tilted_weights[z] = weights[z] * std::pow(pole, -shape_);
      mgf_trans += tilted_weights[z];
      tilted_time_scale_[z] = s_z / pole;
    }
    log_mgf_trans_ = std::log(mgf_trans);
    tilted_positions_ = disk::ZonePositionSampler(
        geometry_, disk::AliasTable::Build(tilted_weights), rates);
    const DisturbanceConfig& disturbance = config_.disturbance;
    if (disturbance.probability > 0.0) {
      const double a = disturbance.delay_min_s;
      const double b = disturbance.delay_max_s;
      const double mgf_u =
          b > a ? std::exp(UniformLogMgf(theta_, b - a) + theta_ * a)
                : std::exp(theta_ * a);
      const double mgf_dist = (1.0 - disturbance.probability) +
                              disturbance.probability * mgf_u;
      log_mgf_dist_ = std::log(mgf_dist);
      tilted_dist_probability_ = disturbance.probability * mgf_u / mgf_dist;
      dist_expm1_ = std::expm1(theta_ * (b - a));
    }
  } else {
    // theta == 0: the untilted model — unit weights, the nominal zone law
    // and Gamma scales.
    tilted_time_scale_ = nominal_time_scale_;
    tilted_positions_ = nominal_positions_;
  }
  psi_ = log_mgf_rot_ + log_mgf_trans_ + log_mgf_dist_;

  if (config_.metrics != nullptr) {
    is_rounds_ = config_.metrics->GetCounter("sim.is.rounds");
    is_overruns_ = config_.metrics->GetCounter("sim.is.overruns");
    is_log_weight_ = config_.metrics->GetHistogram("sim.is.log_weight");
  }

  const size_t n = static_cast<size_t>(num_streams_);
  const size_t rounds_per_sample = kNominalWarmupRounds + 1;
  scratch_.u_all.resize(rounds_per_sample * 3 * n);
  scratch_.zone.resize(n);
  scratch_.cylinder.resize(n);
  scratch_.unit_gamma.resize(rounds_per_sample * n);
  scratch_.rotation_s.resize(n);
  scratch_.transfer_time_s.resize(n);
}

common::StatusOr<ImportanceSampler> ImportanceSampler::Create(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, const ImportanceSamplingOptions& options) {
  if (num_streams <= 0) {
    return common::Status::InvalidArgument("num_streams must be positive");
  }
  if (sizes == nullptr) {
    return common::Status::InvalidArgument("size distribution is null");
  }
  if (auto status = ValidateConfig(config, options); !status.ok()) {
    return status;
  }
  const workload::GammaSizeDistribution* gamma = AsGamma(sizes.get());
  if (gamma == nullptr) {
    return common::Status::InvalidArgument(
        "importance sampling requires Gamma fragment sizes (the exponential "
        "tilt of the zone mixture is closed-form only for the Gamma family)");
  }
  auto placement = disk::PlacementModel::Create(geometry, config.placement);
  if (!placement.ok()) return placement.status();
  if (options.theta >= MinPlacedRate(*placement) / gamma->scale()) {
    return common::Status::InvalidArgument(
        "theta is at or beyond the transfer MGF pole min_z R_z / scale");
  }
  return ImportanceSampler(geometry, seek, num_streams, gamma->shape(),
                           gamma->scale(), *placement, config, options.theta);
}

void ImportanceSampler::ResetForReplication(uint64_t seed) {
  config_.seed = seed;
  rng_ = numeric::Rng(seed);
  disturbance_rng_ =
      numeric::Rng(numeric::SubstreamSeed(seed, kDisturbanceSubstream));
  arm_.Reset(0, true);
}

TiltedRoundOutcome ImportanceSampler::RunRound() {
  const int n = num_streams_;
  Scratch& s = scratch_;
  const size_t per_round = 3 * static_cast<size_t>(n);

  // Uniform draws for the whole sample (warm-ups + measured round) in one
  // engine pass.
  rng_.FillUniform01(s.u_all.data(), s.u_all.size());

  // The Gamma(k, 1) transfer draws of every round of the sample in one
  // batch: the engine reads its words in the order per-round batches
  // would.
  unit_gamma_.Fill(&rng_, s.unit_gamma.data(), s.unit_gamma.size());

  // Every sample is i.i.d.: restart the arm, replay the untilted warm-up
  // rounds, then measure the tilted round.
  arm_.Reset(0, true);
  TiltedRoundOutcome outcome;
  for (int w = 0; w <= kNominalWarmupRounds; ++w) {
    const double* u_round =
        s.u_all.data() + static_cast<size_t>(w) * per_round;
    RunOneRound(u_round, u_round + 2 * n,
                s.unit_gamma.data() + static_cast<size_t>(w) * n,
                /*tilted=*/w == kNominalWarmupRounds, &outcome);
  }

  if (is_rounds_ != nullptr) {
    is_rounds_->Increment();
    if (outcome.overran) is_overruns_->Increment();
    is_log_weight_->Record(outcome.log_weight);
  }
  return outcome;
}

void ImportanceSampler::RunOneRound(const double* u_pos, const double* u_rot,
                                    const double* unit_gamma, bool tilted,
                                    TiltedRoundOutcome* outcome) {
  const int n = num_streams_;
  Scratch& s = scratch_;
  const bool tilt_active = tilted && theta_ > 0.0;

  // Positions; the measured round uses the tilted zone law, warm-ups the
  // nominal one. Cylinder-within-zone is the nominal uniform either way
  // (its conditional law is untilted and cancels in the likelihood
  // ratio).
  (tilt_active ? tilted_positions_ : nominal_positions_)
      .Sample(u_pos, u_pos + n, static_cast<size_t>(n), s.zone.data(),
              s.cylinder.data(), nullptr);

  // Transfers: the round's Gamma(k, 1) draws scaled per request by the
  // zone's transfer-time scale (tilted s_z / (1 - theta s_z) on the
  // measured round).
  const std::vector<double>& time_scale =
      tilt_active ? tilted_time_scale_ : nominal_time_scale_;
  for (int i = 0; i < n; ++i) {
    s.transfer_time_s[i] = unit_gamma[i] * time_scale[s.zone[i]];
  }

  // Rotational latencies; the measured round draws from the tilted
  // uniform via the inverse CDF log1p(u (e^{theta ROT} - 1)) / theta.
  double transfer_sum = 0.0;
  double rotation_sum = 0.0;
  if (tilt_active) {
    numeric::TiltedUniformInverseCdf(u_rot, rot_expm1_, theta_,
                                     s.rotation_s.data(),
                                     static_cast<size_t>(n));
    // The weight's sums; a warm-up round carries no weight terms.
    for (int i = 0; i < n; ++i) {
      transfer_sum += s.transfer_time_s[i];
      rotation_sum += s.rotation_s[i];
    }
  } else {
    const double rotation_time = geometry_.rotation_time();
    for (int i = 0; i < n; ++i) s.rotation_s[i] = u_rot[i] * rotation_time;
  }

  // Disturbances from the dedicated substream, tilted on the measured
  // round (Bernoulli probability and uniform delay both shifted; one event
  // uniform + one delay uniform per firing, exactly the simulator's
  // consumption pattern).
  double tilted_dist_sum = 0.0;
  const DisturbanceConfig& disturbance = config_.disturbance;
  if (disturbance.probability > 0.0) {
    const double event_p =
        tilt_active ? tilted_dist_probability_ : disturbance.probability;
    for (int i = 0; i < n; ++i) {
      if (disturbance_rng_.Uniform01() < event_p) {
        double delay;
        if (tilt_active && disturbance.delay_max_s > disturbance.delay_min_s) {
          const double u = disturbance_rng_.Uniform01();
          delay = disturbance.delay_min_s +
                  numeric::Log1p(u * dist_expm1_) / theta_;
        } else {
          delay = disturbance_rng_.Uniform(disturbance.delay_min_s,
                                           disturbance.delay_max_s);
        }
        s.rotation_s[i] += delay;
        if (tilt_active) tilted_dist_sum += delay;
      }
    }
  }

  // Service order and sweep, exactly as RoundSimulator::ServeRound. Seeks
  // are untilted: their law is a deterministic function of the positions,
  // already accounted by the zone tilt, and so is the service order.
  sched::ScanBatch batch;
  batch.n = static_cast<size_t>(n);
  batch.cylinder = s.cylinder.data();
  batch.rotation_s = s.rotation_s.data();
  batch.transfer_s = s.transfer_time_s.data();
  // A warm-up round only moves the arm, so one the seek bound proves on
  // time skips its sweep (sched::Arm::ServeCertified leaves the arm where
  // Serve would); the measured round always sweeps.
  if (!tilted && arm_.ServeCertified(seek_, batch, config_.policy,
                                     config_.round_length_s)) {
    return;
  }
  const sched::Arm::Round served = arm_.Serve(
      seek_, batch, config_.policy, config_.round_length_s, &s.sweep);

  // Warm-up rounds overwrite these fields; only the measured (final)
  // round's values survive in the caller's outcome.
  outcome->glitched_streams = n - static_cast<int>(served.on_time);
  outcome->total_service_time_s =
      served.return_seek_s + s.sweep.total_service_time_s();
  outcome->overran = outcome->total_service_time_s > config_.round_length_s;

  if (tilt_active) {
    outcome->log_weight =
        static_cast<double>(n) * psi_ -
        theta_ * (rotation_sum + transfer_sum + tilted_dist_sum);
  }
}

namespace {

// Per-replication weighted tallies, reduced in replication order. With
// v_r the round payload in [0, 1] (overrun indicator or glitch fraction)
// and w_r the likelihood ratio, the estimate, its variance and the weight
// diagnostics are functions of these four sums.
struct WeightedTally {
  int64_t rounds = 0;
  double sum_w = 0.0;    // sum w
  double sum_w2 = 0.0;   // sum w^2
  double sum_y = 0.0;    // sum w v
  double sum_y2 = 0.0;   // sum (w v)^2
};

common::Status ValidateISSharding(const ReplicationOptions& replication,
                                  int rounds_per_replication) {
  if (replication.replications <= 0) {
    return common::Status::InvalidArgument("replications must be positive");
  }
  if (rounds_per_replication <= 0) {
    return common::Status::InvalidArgument(
        "rounds_per_replication must be positive");
  }
  return common::Status::Ok();
}

// Runs the sharded tilted rounds and reduces the weighted tallies into an
// estimate. `payload` maps a TiltedRoundOutcome to the value in [0, 1]
// whose weighted mean is being estimated.
template <typename Payload>
common::StatusOr<ImportanceSampleEstimate> RunReplicatedIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options, Payload&& payload) {
  if (auto status = ValidateISSharding(replication, rounds_per_replication);
      !status.ok()) {
    return status;
  }
  ImportanceSamplingOptions resolved = options;
  if (resolved.theta == 0.0) {
    if (config.policy == sched::ServicePolicy::kFcfs) {
      return common::Status::InvalidArgument(
          "the auto tilt models SCAN's service time and over-tilts FCFS; "
          "pass an explicit theta for FCFS");
    }
    auto theta = AutoTiltParameter(geometry, seek, num_streams, *sizes,
                                   config.round_length_s);
    if (!theta.ok()) return theta.status();
    resolved.theta = *theta;
  }
  // Probe construction validates every argument once; per-block creation
  // below then cannot fail.
  auto probe = ImportanceSampler::Create(geometry, seek, num_streams, sizes,
                                         config, resolved);
  if (!probe.ok()) return probe.status();

  std::vector<WeightedTally> tallies(replication.replications);
  common::ParallelForBlocks(
      replication.replications,
      [&](int64_t begin, int64_t end) {
        auto sampler = ImportanceSampler::Create(geometry, seek, num_streams,
                                                 sizes, config, resolved);
        ZS_CHECK(sampler.ok());
        for (int64_t r = begin; r < end; ++r) {
          sampler->ResetForReplication(numeric::SubstreamSeed(
              replication.base_seed, static_cast<uint64_t>(r)));
          WeightedTally& tally = tallies[r];
          for (int round = 0; round < rounds_per_replication; ++round) {
            const TiltedRoundOutcome outcome = sampler->RunRound();
            const double w = std::exp(outcome.log_weight);
            const double v = payload(outcome);
            const double y = w * v;
            ++tally.rounds;
            tally.sum_w += w;
            tally.sum_w2 += w * w;
            tally.sum_y += y;
            tally.sum_y2 += y * y;
          }
        }
      },
      replication.pool);

  WeightedTally total;  // fixed replication order: deterministic
  for (const WeightedTally& tally : tallies) {
    total.rounds += tally.rounds;
    total.sum_w += tally.sum_w;
    total.sum_w2 += tally.sum_w2;
    total.sum_y += tally.sum_y;
    total.sum_y2 += tally.sum_y2;
  }

  const double count = static_cast<double>(total.rounds);
  ImportanceSampleEstimate estimate;
  estimate.rounds = total.rounds;
  estimate.theta = probe->theta();
  estimate.weight_mean = total.sum_w / count;
  estimate.weight_variance =
      total.rounds > 1
          ? std::max(0.0, (total.sum_w2 - total.sum_w * total.sum_w / count) /
                              (count - 1.0))
          : 0.0;
  estimate.ess = total.sum_w2 > 0.0
                     ? total.sum_w * total.sum_w / total.sum_w2
                     : 0.0;

  const double z =
      numeric::NormalQuantile(0.5 + 0.5 * options.confidence);
  // Horvitz-Thompson: the i.i.d. sample is y_r = w_r v_r with mean p.
  const double point = total.sum_y / count;
  const double variance =
      total.rounds > 1
          ? std::max(0.0, (total.sum_y2 - total.sum_y * total.sum_y / count) /
                              (count - 1.0))
          : 0.0;
  const double se = std::sqrt(variance / count);
  estimate.point = point;
  estimate.ci_lower = std::max(0.0, point - z * se);
  estimate.ci_upper = std::min(1.0, point + z * se);
  return estimate;
}

}  // namespace

common::StatusOr<ImportanceSampleEstimate> EstimateLateProbabilityIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options) {
  return RunReplicatedIS(geometry, seek, num_streams, std::move(sizes),
                         config, rounds_per_replication, replication, options,
                         [](const TiltedRoundOutcome& outcome) {
                           return outcome.overran ? 1.0 : 0.0;
                         });
}

common::StatusOr<ImportanceSampleEstimate> EstimateGlitchProbabilityIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options) {
  const double inv_streams = 1.0 / static_cast<double>(num_streams);
  return RunReplicatedIS(geometry, seek, num_streams, std::move(sizes),
                         config, rounds_per_replication, replication, options,
                         [inv_streams](const TiltedRoundOutcome& outcome) {
                           return static_cast<double>(
                                      outcome.glitched_streams) *
                                  inv_streams;
                         });
}

common::StatusOr<ErrorProbabilityISEstimate> EstimateErrorProbabilityIS(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const SimulatorConfig& config, int m, int g, int rounds_per_replication,
    const ReplicationOptions& replication,
    const ImportanceSamplingOptions& options) {
  if (m <= 0 || g < 0) {
    return common::Status::InvalidArgument(
        "lifetime length m must be positive and glitch budget g >= 0");
  }
  auto glitch = EstimateGlitchProbabilityIS(geometry, seek, num_streams,
                                            std::move(sizes), config,
                                            rounds_per_replication,
                                            replication, options);
  if (!glitch.ok()) return glitch.status();
  ErrorProbabilityISEstimate estimate;
  estimate.glitch = *glitch;
  estimate.m = m;
  estimate.g = g;
  // BinomialTailExact is nondecreasing in p, so the CI endpoints map
  // directly (eq. 3.3.4 at the simulated per-round probability).
  estimate.point = core::BinomialTailExact(m, glitch->point, g);
  estimate.ci_lower = core::BinomialTailExact(m, glitch->ci_lower, g);
  estimate.ci_upper = core::BinomialTailExact(m, glitch->ci_upper, g);
  return estimate;
}

}  // namespace zonestream::sim
