// The importance-sampling contract (sim/importance_sampling.h):
//  - the tilt parameter is the analytic Chernoff minimizer theta*, and
//    the per-round likelihood ratio has unit mean (E[w] = 1),
//  - estimates are invariant to the chosen tilt (theta-consistency: the
//    same nominal probability must come back at every theta — this is
//    the regression test for the arm-state coupling bias, where weights
//    did not cover the predecessor draws that set the arm position),
//  - at moderate probabilities the IS estimate agrees with the naive
//    replicated simulator; at deep tails (1e-6 .. 1e-7) it agrees with
//    the saddlepoint estimate and respects the Chernoff upper bound
//    while the naive estimator sees a handful of events at best,
//  - p_error maps through the exact binomial tail,
//  - estimates are bit-identical at every thread count.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/glitch_model.h"
#include "core/saddlepoint.h"
#include "core/service_time_model.h"
#include "disk/placement.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "sim/importance_sampling.h"
#include "sim/rare_event_spec.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

constexpr double kMeanSizeBytes = 200e3;
constexpr double kVarSizeBytes2 = 100e3 * 100e3;

std::shared_ptr<const workload::SizeDistribution> Table1Sizes() {
  auto sizes =
      workload::GammaSizeDistribution::Create(kMeanSizeBytes, kVarSizeBytes2);
  ZS_CHECK(sizes.ok());
  return std::make_shared<workload::GammaSizeDistribution>(*sizes);
}

SimulatorConfig BaseConfig() {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  return config;
}

ReplicationOptions BaseReplication() {
  ReplicationOptions replication;
  replication.replications = 8;
  replication.base_seed = 42;
  return replication;
}

common::StatusOr<ImportanceSampleEstimate> LateIS(
    int n, int rounds, const ImportanceSamplingOptions& options,
    const ReplicationOptions& replication) {
  return EstimateLateProbabilityIS(disk::QuantumViking2100(),
                                   disk::QuantumViking2100Seek(), n,
                                   Table1Sizes(), BaseConfig(), rounds,
                                   replication, options);
}

double HalfWidth(const ImportanceSampleEstimate& estimate) {
  return (estimate.ci_upper - estimate.ci_lower) / 2.0;
}

// --------------------------------------------------------------------------
// Tilt parameter and validation.

TEST(RareEventTest, AutoTiltMatchesAnalyticChernoffMinimizer) {
  const auto geometry = disk::QuantumViking2100();
  const auto seek = disk::QuantumViking2100Seek();
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      geometry, seek, kMeanSizeBytes, kVarSizeBytes2);
  ASSERT_TRUE(model.ok());
  for (int n : {24, 30}) {
    auto theta =
        AutoTiltParameter(geometry, seek, n, *Table1Sizes(), 1.0);
    ASSERT_TRUE(theta.ok());
    const auto bound = model->LateBound(n, 1.0);
    EXPECT_NEAR(*theta, bound.theta_star, 1e-9 * bound.theta_star)
        << "n=" << n;
    EXPECT_LT(*theta, model->theta_max());
  }
}

TEST(RareEventTest, AutoTiltIsZeroWhenNotRare) {
  // Far above capacity the round overruns typically; theta* <= 0 and the
  // auto tilt degenerates to 0 (no tilting needed).
  auto theta = AutoTiltParameter(disk::QuantumViking2100(),
                                 disk::QuantumViking2100Seek(), 120,
                                 *Table1Sizes(), 1.0);
  ASSERT_TRUE(theta.ok());
  EXPECT_EQ(*theta, 0.0);
}

TEST(RareEventTest, CreateRejectsUnsupportedConfigurations) {
  const auto geometry = disk::QuantumViking2100();
  const auto seek = disk::QuantumViking2100Seek();
  const auto sizes = Table1Sizes();

  {
    ImportanceSamplingOptions options;
    options.theta = -1.0;
    auto sampler = ImportanceSampler::Create(geometry, seek, 24, sizes,
                                             BaseConfig(), options);
    EXPECT_FALSE(sampler.ok());
  }
  {
    // Beyond the tilt domain theta >= min_z R_z / scale.
    ImportanceSamplingOptions options;
    options.theta = 1e9;
    auto sampler = ImportanceSampler::Create(geometry, seek, 24, sizes,
                                             BaseConfig(), options);
    EXPECT_FALSE(sampler.ok());
  }
  {
    // A placement disk::PlacementModel rejects (outer zones need a count
    // in [1, Z]).
    SimulatorConfig config = BaseConfig();
    config.placement = {disk::PlacementStrategy::kOuterZones, 0};
    auto sampler = ImportanceSampler::Create(geometry, seek, 24, sizes,
                                             config,
                                             ImportanceSamplingOptions{});
    EXPECT_FALSE(sampler.ok());
  }
  {
    // Non-Gamma sizes have no closed-form tilt.
    auto lognormal = workload::LognormalSizeDistribution::Create(
        kMeanSizeBytes, kVarSizeBytes2);
    ASSERT_TRUE(lognormal.ok());
    ImportanceSamplingOptions options;
    auto sampler = ImportanceSampler::Create(
        geometry, seek, 24,
        std::make_shared<workload::LognormalSizeDistribution>(*lognormal),
        BaseConfig(), options);
    EXPECT_FALSE(sampler.ok());
  }
  {
    // The auto tilt models SCAN; FCFS must pass an explicit theta, in
    // every estimator.
    SimulatorConfig fcfs = BaseConfig();
    fcfs.policy = sched::ServicePolicy::kFcfs;
    const ImportanceSamplingOptions auto_tilt;
    const auto late = EstimateLateProbabilityIS(
        geometry, seek, 26, sizes, fcfs, 1000, BaseReplication(), auto_tilt);
    const auto glitch = EstimateGlitchProbabilityIS(
        geometry, seek, 26, sizes, fcfs, 1000, BaseReplication(), auto_tilt);
    const auto error = EstimateErrorProbabilityIS(geometry, seek, 26, sizes,
                                                  fcfs, 1200, 12, 1000,
                                                  BaseReplication(), auto_tilt);
    for (const common::Status& status :
         {late.status(), glitch.status(), error.status()}) {
      EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
      EXPECT_NE(status.ToString().find("explicit theta"), std::string::npos)
          << status.ToString();
    }
  }
}

// --------------------------------------------------------------------------
// Unbiasedness at moderate probabilities.

TEST(RareEventTest, WeightMeanIsUnity) {
  // E[w] = 1 for every valid theta; at the moderate tilt theta*(n=30)
  // the weight distribution is light enough for the sample mean to
  // settle near 1 (at deep tilts E[w] is dominated by rare small-weight
  // rounds and the sample mean is itself a rare-event problem).
  ImportanceSamplingOptions options;
  auto estimate = LateIS(30, 20000, options, BaseReplication());
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->weight_mean, 1.0, 0.05);
  EXPECT_GT(estimate->ess, 1000.0);
}

TEST(RareEventTest, MatchesNaiveEstimatorAtModerateProbability) {
  // Under each service policy, at an N where p_late is a few percent
  // (3.8e-2 for SCAN at N = 30) and resolvable both ways, the two
  // estimators must agree within their joint uncertainty, IS must not be
  // wider, and its weights must not collapse. The auto tilt comes from
  // SCAN's model, whose tail at N = 26 is far deeper than FCFS's; there
  // it leaves an ESS of a few dozen, so FCFS runs at half of it. Track
  // pairing tilts its own zone law (pairs at harmonic-mean rates, zero
  // weight on the zones hosting no pair's first half); the auto tilt
  // models the uniform placement, so it runs an explicit theta at N = 30,
  // where its naive p_late is about 3.4%.
  struct Case {
    sched::ServicePolicy policy;
    int n;
    double tilt_fraction;  // of AutoTiltParameter, when theta is 0
    double theta = 0.0;    // explicit tilt (1/s)
    disk::PlacementConfig placement = {};
  };
  const auto geometry = disk::QuantumViking2100();
  const auto seek = disk::QuantumViking2100Seek();
  const auto replication = BaseReplication();
  const disk::PlacementConfig pairing{disk::PlacementStrategy::kTrackPairing,
                                      0};
  for (const Case& c :
       {Case{sched::ServicePolicy::kScan, 30, 1.0},
        Case{sched::ServicePolicy::kCScan, 30, 1.0},
        Case{sched::ServicePolicy::kSstf, 30, 1.0},
        Case{sched::ServicePolicy::kFcfs, 26, 0.5},
        Case{sched::ServicePolicy::kScan, 30, 0.0, 20.0, pairing}}) {
    SCOPED_TRACE(::testing::Message()
                 << "policy " << static_cast<int>(c.policy) << " placement "
                 << static_cast<int>(c.placement.strategy));
    SimulatorConfig config = BaseConfig();
    config.policy = c.policy;
    config.placement = c.placement;
    auto naive = EstimateLateProbabilityReplicated(
        geometry, seek, c.n, RoundSimulator::IidFactory(Table1Sizes()),
        config, 20000, replication);
    ASSERT_TRUE(naive.ok());
    auto theta =
        AutoTiltParameter(geometry, seek, c.n, *Table1Sizes(), 1.0);
    ASSERT_TRUE(theta.ok());
    ImportanceSamplingOptions options;
    options.theta = c.theta > 0.0 ? c.theta : c.tilt_fraction * *theta;
    auto is = EstimateLateProbabilityIS(geometry, seek, c.n, Table1Sizes(),
                                        config, 20000, replication, options);
    ASSERT_TRUE(is.ok());
    EXPECT_GT(is->point, naive->ci_lower);
    EXPECT_LT(is->point, naive->ci_upper);
    EXPECT_LT(HalfWidth(*is),
              (naive->ci_upper - naive->ci_lower) / 2.0);
    EXPECT_GE(is->ess, 1000.0);
  }
}

// --------------------------------------------------------------------------
// Theta-consistency: the estimate must not depend on the tilt.
//
// Regression test for the arm-state coupling bias: when tilted rounds
// shared the arm path, the predecessor rounds' tilted draws biased each
// round's start-of-round arm distribution in a way the round's own
// weight could not correct, and the estimate drifted monotonically in
// theta (6.9e-6 at theta=30 vs 7.5e-6 at theta=62 for n=24). With
// i.i.d. samples (arm reset + nominal warm-up per sample) all tilts
// estimate the same probability.

TEST(RareEventTest, ThetaConsistencyAcrossTilts) {
  double min_point = 1.0;
  double max_point = 0.0;
  for (double theta : {30.0, 50.0, 62.0}) {
    ImportanceSamplingOptions options;
    options.theta = theta;
    auto estimate = LateIS(24, 20000, options, BaseReplication());
    ASSERT_TRUE(estimate.ok()) << "theta=" << theta;
    min_point = std::min(min_point, estimate->point);
    max_point = std::max(max_point, estimate->point);
  }
  EXPECT_LT(max_point / min_point, 1.10)
      << "estimate depends on the tilt: [" << min_point << ", " << max_point
      << "]";
}

// --------------------------------------------------------------------------
// Deep tails.

TEST(RareEventTest, DeepTailAgreesWithAnalyticModels) {
  // n=24: p_late ~ 7e-6 — the naive estimator would see ~1 event per
  // 160k rounds; IS resolves it to ~1% relative CI from the same round
  // count. The saddlepoint estimate is an approximation (within ~35%
  // here); the Chernoff bound is a hard upper bound.
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      kMeanSizeBytes, kVarSizeBytes2);
  ASSERT_TRUE(model.ok());
  auto estimate =
      LateIS(24, 20000, ImportanceSamplingOptions{}, BaseReplication());
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate->point, 1e-6);
  EXPECT_LT(estimate->point, 1e-5);
  EXPECT_LT(HalfWidth(*estimate), 0.05 * estimate->point);

  const auto chernoff = model->LateBound(24, 1.0);
  EXPECT_LT(estimate->point, chernoff.bound);
  const auto saddle = core::SaddlepointLateProbability(*model, 24, 1.0);
  ASSERT_TRUE(saddle.converged);
  const double ratio = estimate->point / saddle.probability;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(RareEventTest, ErrorProbabilityMapsThroughExactBinomialTail) {
  // p_error = P[more than g of m rounds glitch] is the exact binomial
  // tail at the IS-estimated per-round glitch probability; the CI maps
  // through the same monotone function.
  ImportanceSamplingOptions options;
  auto glitch = EstimateGlitchProbabilityIS(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 24,
      Table1Sizes(), BaseConfig(), 20000, BaseReplication(), options);
  ASSERT_TRUE(glitch.ok());
  auto error = EstimateErrorProbabilityIS(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 24,
      Table1Sizes(), BaseConfig(), /*m=*/1200, /*g=*/12, 20000,
      BaseReplication(), options);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->glitch.point, glitch->point);
  EXPECT_EQ(error->point,
            core::BinomialTailExact(1200, glitch->point, 12));
  EXPECT_EQ(error->ci_lower,
            core::BinomialTailExact(1200, glitch->ci_lower, 12));
  EXPECT_EQ(error->ci_upper,
            core::BinomialTailExact(1200, glitch->ci_upper, 12));
  EXPECT_LE(error->ci_lower, error->point);
  EXPECT_LE(error->point, error->ci_upper);
}

// --------------------------------------------------------------------------
// Determinism.

TEST(RareEventTest, EstimateIsBitIdenticalAcrossThreadCounts) {
  common::ThreadPool pool1(1);
  common::ThreadPool pool3(3);
  ReplicationOptions serial = BaseReplication();
  serial.pool = &pool1;
  ReplicationOptions threaded = BaseReplication();
  threaded.pool = &pool3;
  const ImportanceSamplingOptions options;
  auto a = LateIS(24, 5000, options, serial);
  auto b = LateIS(24, 5000, options, threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->point, b->point);
  EXPECT_EQ(a->ci_lower, b->ci_lower);
  EXPECT_EQ(a->ci_upper, b->ci_upper);
  EXPECT_EQ(a->ess, b->ess);
  EXPECT_EQ(a->weight_mean, b->weight_mean);
  EXPECT_EQ(a->weight_variance, b->weight_variance);
}

TEST(RareEventTest, ResetForReplicationReproducesSamplePath) {
  auto sampler = ImportanceSampler::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 24,
      Table1Sizes(), BaseConfig(), ImportanceSamplingOptions{});
  ASSERT_TRUE(sampler.ok());
  sampler->ResetForReplication(123);
  std::vector<TiltedRoundOutcome> first;
  for (int i = 0; i < 16; ++i) first.push_back(sampler->RunRound());
  sampler->ResetForReplication(123);
  for (int i = 0; i < 16; ++i) {
    const TiltedRoundOutcome replay = sampler->RunRound();
    EXPECT_EQ(replay.total_service_time_s, first[i].total_service_time_s);
    EXPECT_EQ(replay.log_weight, first[i].log_weight);
    EXPECT_EQ(replay.overran, first[i].overran);
    EXPECT_EQ(replay.glitched_streams, first[i].glitched_streams);
  }
}

TEST(RareEventTest, MetricsCountMeasuredRoundsOnly) {
  obs::Registry registry;
  SimulatorConfig config = BaseConfig();
  config.metrics = &registry;
  auto sampler = ImportanceSampler::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 24,
      Table1Sizes(), config, ImportanceSamplingOptions{});
  ASSERT_TRUE(sampler.ok());
  sampler->ResetForReplication(7);
  for (int i = 0; i < 50; ++i) sampler->RunRound();
  EXPECT_EQ(registry.GetCounter("sim.is.rounds")->value(), 50);
  EXPECT_EQ(registry.GetHistogram("sim.is.log_weight")->count(), 50);
}

TEST(RareEventSpecTest, DefaultsAndRoundTrip) {
  auto spec = ParseRareEventSpec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->streams, 0);
  EXPECT_EQ(spec->rounds_per_replication, 20000);
  EXPECT_EQ(spec->replications, 8);
  EXPECT_EQ(spec->base_seed, 42u);
  EXPECT_EQ(spec->lifetime_rounds, 1200);
  EXPECT_EQ(spec->tolerated_glitches, 12);
  EXPECT_EQ(spec->options.theta, 0.0);

  RareEventSpec full;
  full.streams = 30;
  full.rounds_per_replication = 4000;
  full.replications = 4;
  full.base_seed = 7;
  full.lifetime_rounds = 600;
  full.tolerated_glitches = 6;
  full.options.theta = 34.5;
  full.options.confidence = 0.99;
  auto reparsed = ParseRareEventSpec(FormatRareEventSpec(full));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(FormatRareEventSpec(*reparsed), FormatRareEventSpec(full));
  EXPECT_EQ(reparsed->options.theta, 34.5);
}

TEST(RareEventSpecTest, ParsesKeysAndRejectsMalformedInput) {
  auto spec = ParseRareEventSpec("streams=28,theta=auto,confidence=0.9");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->streams, 28);
  EXPECT_EQ(spec->options.theta, 0.0);
  EXPECT_EQ(spec->options.confidence, 0.9);

  for (const char* bad :
       {"streams", "streams=", "=30", "streams=30,streams=31",
        "bogus_key=1", "theta=fast", "theta=inf", "theta=-2",
        "rounds=1e9999", "rounds=2.5", "rounds=0", "reps=0",
        "seed=-1", "m=0", "g=-1", "g=2000,m=1200",
        "streams=999999999999999999999"}) {
    EXPECT_FALSE(ParseRareEventSpec(bad).ok()) << bad;
  }
  // The sampler has one estimator and one sampling scheme; the keys that
  // once chose another are unknown keys.
  for (const char* removed : {"self_normalized=0", "antithetic=0",
                              "strata=1", "tilt_disturbance=1",
                              "warmups=1"}) {
    const auto parsed = ParseRareEventSpec(removed);
    ASSERT_FALSE(parsed.ok()) << removed;
    EXPECT_NE(parsed.status().ToString().find("unknown key"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace zonestream::sim
