#include "sim/round_simulator.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "core/transfer_models.h"
#include "disk/presets.h"
#include "numeric/statistics.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> Table1Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
}

RoundSimulator MakeSimulator(int n, uint64_t seed = 42,
                             double round_length = 1.0) {
  SimulatorConfig config;
  config.round_length_s = round_length;
  config.seed = seed;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

TEST(RoundSimulatorTest, CreateValidation) {
  SimulatorConfig config;
  EXPECT_FALSE(RoundSimulator::Create(disk::QuantumViking2100(),
                                      disk::QuantumViking2100Seek(), 0,
                                      RoundSimulator::IidFactory(Table1Sizes()),
                                      config)
                   .ok());
  config.round_length_s = 0.0;
  EXPECT_FALSE(RoundSimulator::Create(disk::QuantumViking2100(),
                                      disk::QuantumViking2100Seek(), 5,
                                      RoundSimulator::IidFactory(Table1Sizes()),
                                      config)
                   .ok());
  config.round_length_s = 1.0;
  EXPECT_FALSE(RoundSimulator::Create(disk::QuantumViking2100(),
                                      disk::QuantumViking2100Seek(), 5,
                                      nullptr, config)
                   .ok());
  // Disturbance delays must be non-negative with min <= max.
  config.disturbance.probability = 0.1;
  config.disturbance.delay_min_s = -0.01;
  config.disturbance.delay_max_s = 0.01;
  EXPECT_FALSE(RoundSimulator::Create(disk::QuantumViking2100(),
                                      disk::QuantumViking2100Seek(), 5,
                                      RoundSimulator::IidFactory(Table1Sizes()),
                                      config)
                   .ok());
  config.disturbance.delay_min_s = 0.02;
  EXPECT_FALSE(RoundSimulator::Create(disk::QuantumViking2100(),
                                      disk::QuantumViking2100Seek(), 5,
                                      RoundSimulator::IidFactory(Table1Sizes()),
                                      config)
                   .ok());
  // The placement must be one disk::PlacementModel accepts: outer zones
  // need a count in [1, Z] (the Viking has 15 zones).
  config.disturbance = DisturbanceConfig{};
  config.placement.strategy = disk::PlacementStrategy::kOuterZones;
  for (const int count : {0, 16}) {
    config.placement.outer_zone_count = count;
    EXPECT_FALSE(
        RoundSimulator::Create(disk::QuantumViking2100(),
                               disk::QuantumViking2100Seek(), 5,
                               RoundSimulator::IidFactory(Table1Sizes()),
                               config)
            .ok())
        << "outer_zone_count " << count;
  }
  config.placement.outer_zone_count = 15;
  EXPECT_TRUE(RoundSimulator::Create(disk::QuantumViking2100(),
                                     disk::QuantumViking2100Seek(), 5,
                                     RoundSimulator::IidFactory(Table1Sizes()),
                                     config)
                  .ok());
}

TEST(RoundSimulatorTest, RoundOutcomeConsistency) {
  RoundSimulator simulator = MakeSimulator(26);
  for (int r = 0; r < 200; ++r) {
    const RoundOutcome outcome = simulator.RunRound();
    EXPECT_GT(outcome.total_service_time_s, 0.0);
    if (!outcome.overran) {
      EXPECT_TRUE(outcome.glitched_streams.empty());
    } else {
      EXPECT_FALSE(outcome.glitched_streams.empty());
    }
    for (int stream : outcome.glitched_streams) {
      EXPECT_GE(stream, 0);
      EXPECT_LT(stream, 26);
    }
  }
}

TEST(RoundSimulatorTest, DeterministicForSeed) {
  RoundSimulator a = MakeSimulator(20, 7);
  RoundSimulator b = MakeSimulator(20, 7);
  for (int r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(a.RunRound().total_service_time_s,
                     b.RunRound().total_service_time_s);
  }
}

TEST(RoundSimulatorTest, ServiceTimeMomentsMatchAnalyticModel) {
  // The simulated mean/variance of T_N must sit below the model's mean
  // (which uses the worst-case Oyang seek) but in the same regime.
  const int n = 26;
  RoundSimulator simulator = MakeSimulator(n, 11);
  const numeric::RunningStats stats = simulator.SampleServiceTimes(20000);

  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ASSERT_TRUE(model.ok());
  const core::ServiceTimeMoments moments = model->Moments(n);
  // Analytic mean uses the seek *bound*, so it dominates the simulated mean.
  EXPECT_LT(stats.mean(), moments.mean_s);
  // But the bulk (rotation + transfer) dominates, so they are close.
  EXPECT_GT(stats.mean(), moments.mean_s - model->SeekBound(n));
  // Variances agree within sampling error + seek variability.
  EXPECT_NEAR(stats.variance(), moments.variance_s2,
              0.2 * moments.variance_s2);
}

TEST(RoundSimulatorTest, LateProbabilityDropsWithFewerStreams) {
  const sim::ProbabilityEstimate loaded =
      MakeSimulator(30, 3).EstimateLateProbability(4000);
  const sim::ProbabilityEstimate light =
      MakeSimulator(20, 3).EstimateLateProbability(4000);
  EXPECT_GT(loaded.point, light.point);
  EXPECT_LT(light.point, 0.001);
}

TEST(RoundSimulatorTest, GlitchProbabilityBelowLateProbability) {
  // A glitchy round usually glitches only a subset of streams, so the
  // per-stream glitch probability is below the round-late probability.
  RoundSimulator for_late = MakeSimulator(30, 5);
  RoundSimulator for_glitch = MakeSimulator(30, 5);
  const double p_late = for_late.EstimateLateProbability(4000).point;
  const double p_glitch = for_glitch.EstimateGlitchProbability(4000).point;
  EXPECT_LT(p_glitch, p_late);
  EXPECT_GT(p_glitch, 0.0);
}

TEST(RoundSimulatorTest, ErrorProbabilityBoundsViaGlitchTolerance) {
  // With g = 0 every stream "exceeds" the tolerance (P[X >= 0] = 1).
  RoundSimulator simulator = MakeSimulator(10, 9);
  const ProbabilityEstimate all =
      simulator.EstimateErrorProbability(/*m=*/10, /*g=*/0, /*lifetimes=*/5);
  EXPECT_DOUBLE_EQ(all.point, 1.0);
  // With an unreachable tolerance nobody exceeds it.
  RoundSimulator simulator2 = MakeSimulator(10, 9);
  const ProbabilityEstimate none = simulator2.EstimateErrorProbability(
      /*m=*/10, /*g=*/11, /*lifetimes=*/5);
  EXPECT_DOUBLE_EQ(none.point, 0.0);
}

TEST(RoundSimulatorTest, SweepPoliciesBothWork) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 21;
  config.policy = sched::ServicePolicy::kCScan;
  auto reset = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(reset.ok());
  const ProbabilityEstimate p_reset = reset->EstimateLateProbability(4000);

  config.policy = sched::ServicePolicy::kScan;
  auto alternate = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(alternate.ok());
  const ProbabilityEstimate p_alt = alternate->EstimateLateProbability(4000);

  // Both policies must be well under the analytic bound at N = 26; C-SCAN
  // pays an extra return seek but stays in the same regime.
  EXPECT_LT(p_reset.point, 0.01);
  EXPECT_LT(p_alt.point, 0.01);
}

// --------------------------------------------------------------------------
// Failure injection (disturbance) tests

RoundSimulator MakeDisturbedSimulator(int n, const DisturbanceConfig& d,
                                      uint64_t seed) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = seed;
  config.disturbance = d;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

TEST(DisturbanceTest, ZeroProbabilityMatchesClean) {
  DisturbanceConfig none;
  RoundSimulator disturbed = MakeDisturbedSimulator(26, none, 41);
  RoundSimulator clean = MakeSimulator(26, 41);
  for (int r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(disturbed.RunRound().total_service_time_s,
                     clean.RunRound().total_service_time_s);
  }
}

TEST(DisturbanceTest, ThermalRecalibrationBreaksTheCleanModel) {
  // A 2% chance of a 50-500 ms recalibration per request adds ~80 ms to
  // the mean round at N = 26 — enough to push the simulated p_late past
  // the clean analytic bound: the guarantee only covers the modeled
  // disk. (This is the negative control for the next test.)
  DisturbanceConfig tcal;
  tcal.probability = 0.02;
  tcal.delay_min_s = 0.05;
  tcal.delay_max_s = 0.5;
  RoundSimulator simulator = MakeDisturbedSimulator(26, tcal, 43);
  const ProbabilityEstimate disturbed =
      simulator.EstimateLateProbability(15000);
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(disturbed.ci_lower, model->LateBound(26, 1.0).bound);
}

TEST(DisturbanceTest, MomentInflatedModelRestoresConservativeness) {
  // Folding the disturbance's two moments into the transfer time re-arms
  // the bound: D = extra delay with P[D>0] = p, uniform [a, b] when
  // present. E[D] = p(a+b)/2, E[D^2] = p(a^2+ab+b^2)/3.
  DisturbanceConfig tcal;
  tcal.probability = 0.02;
  tcal.delay_min_s = 0.05;
  tcal.delay_max_s = 0.5;
  const double a = tcal.delay_min_s;
  const double b = tcal.delay_max_s;
  const double d_mean = tcal.probability * 0.5 * (a + b);
  const double d_m2 = tcal.probability * (a * a + a * b + b * b) / 3.0;
  const double d_var = d_m2 - d_mean * d_mean;

  auto clean_transfer = core::GammaTransferModel::ForMultiZone(
      disk::QuantumViking2100(), 200e3, 1e10);
  ASSERT_TRUE(clean_transfer.ok());
  auto inflated = core::ServiceTimeModel::FromTransferMoments(
      disk::QuantumViking2100Seek(), 6720, 8.34e-3,
      clean_transfer->mean() + d_mean, clean_transfer->variance() + d_var);
  ASSERT_TRUE(inflated.ok());

  for (int n : {20, 26}) {
    RoundSimulator simulator = MakeDisturbedSimulator(n, tcal, 47 + n);
    const ProbabilityEstimate disturbed =
        simulator.EstimateLateProbability(15000);
    EXPECT_GE(inflated->LateBound(n, 1.0).bound, disturbed.ci_lower) << n;
  }
}

TEST(DisturbanceTest, InflatedModelAdmitsFewerStreams) {
  DisturbanceConfig tcal;
  tcal.probability = 0.02;
  tcal.delay_min_s = 0.05;
  tcal.delay_max_s = 0.5;
  const double d_mean = tcal.probability * 0.5 * (0.05 + 0.5);
  const double d_m2 =
      tcal.probability * (0.05 * 0.05 + 0.05 * 0.5 + 0.5 * 0.5) / 3.0;
  auto clean_transfer = core::GammaTransferModel::ForMultiZone(
      disk::QuantumViking2100(), 200e3, 1e10);
  auto inflated = core::ServiceTimeModel::FromTransferMoments(
      disk::QuantumViking2100Seek(), 6720, 8.34e-3,
      clean_transfer->mean() + d_mean,
      clean_transfer->variance() + d_m2 - d_mean * d_mean);
  auto clean = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  EXPECT_LT(core::MaxStreamsByLateProbability(*inflated, 1.0, 0.01),
            core::MaxStreamsByLateProbability(*clean, 1.0, 0.01));
}

TEST(RoundSimulatorTest, WilsonIntervalsBracketThePoint) {
  RoundSimulator simulator = MakeSimulator(28, 31);
  const ProbabilityEstimate estimate = simulator.EstimateLateProbability(2000);
  EXPECT_LE(estimate.ci_lower, estimate.point);
  EXPECT_GE(estimate.ci_upper, estimate.point);
  EXPECT_EQ(estimate.trials, 2000);
}

// --------------------------------------------------------------------------
// Regression: the one-directional sweep must charge the return seek

RoundSimulator MakeResetSimulator(int n, uint64_t seed) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = seed;
  config.policy = sched::ServicePolicy::kCScan;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

// One C-SCAN round from `simulator`'s current state, and the same
// round from a twin that imports that state with the arm already at
// cylinder 0 — the round an uncharged (teleporting) reset would serve.
// Every sweep starts at cylinder 0, so the two draw and serve identical
// requests and differ only by the charged return seek.
struct ResetRoundPair {
  int arm_before = 0;
  double with_return = 0.0;
  double free_reset = 0.0;
};

ResetRoundPair RunResetRoundPair(RoundSimulator* simulator,
                                 RoundSimulator* twin) {
  RoundSimulatorState state = simulator->ExportState();
  ResetRoundPair pair;
  pair.arm_before = state.arm_cylinder;
  state.arm_cylinder = 0;
  ZS_CHECK(twin->ImportState(state).ok());
  pair.with_return = simulator->RunRound().total_service_time_s;
  pair.free_reset = twin->RunRound().total_service_time_s;
  return pair;
}

TEST(ArmResetRegressionTest, ReturnSeekLengthensRoundsVsLegacy) {
  // Each round is charged exactly the seek back from where the previous
  // sweep ended, on top of the round a free reset would serve.
  RoundSimulator fixed = MakeResetSimulator(26, 57);
  RoundSimulator twin = MakeResetSimulator(26, 57);
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  double charged = 0.0;
  for (int r = 0; r < 200; ++r) {
    const ResetRoundPair pair = RunResetRoundPair(&fixed, &twin);
    EXPECT_EQ(pair.with_return,
              (pair.arm_before != 0 ? seek.SeekTime(pair.arm_before) : 0.0) +
                  pair.free_reset)
        << "round " << r;
    if (r == 0) {
      // Round 0 starts with the arm already at 0: no return seek yet.
      EXPECT_EQ(pair.arm_before, 0);
      continue;
    }
    EXPECT_GT(pair.with_return, pair.free_reset) << "round " << r;
    charged += pair.with_return - pair.free_reset;
  }
  // The per-round surcharge is a real seek: a full-stroke sweep back
  // takes ~10-20 ms on this disk, never hours and never zero.
  EXPECT_GT(charged / 199.0, 1e-3);
  EXPECT_LT(charged / 199.0, 0.1);
}

TEST(ArmResetRegressionTest, ReturnSeekRaisesLateProbabilityEstimate) {
  // At N = 30 the system sits near its deadline, so the uncharged seek
  // visibly underestimates p_late.
  RoundSimulator fixed = MakeResetSimulator(30, 13);
  RoundSimulator twin = MakeResetSimulator(30, 13);
  int late_fixed = 0;
  int late_free = 0;
  for (int r = 0; r < 4000; ++r) {
    const ResetRoundPair pair = RunResetRoundPair(&fixed, &twin);
    if (pair.with_return > 1.0) ++late_fixed;
    if (pair.free_reset > 1.0) ++late_free;
  }
  EXPECT_GT(late_fixed, late_free);
}

// --------------------------------------------------------------------------
// Regression: correlated glitch/error events need cluster-robust intervals

RoundSimulator MakeIntervalSimulator(int n, uint64_t seed) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = seed;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

// The pooled Wilson interval over the estimate's own events and trials:
// what an estimator that treats every (stream, round) or (stream,
// lifetime) sample as independent would report.
numeric::ProportionInterval PooledInterval(const ProbabilityEstimate& e) {
  const auto events = static_cast<int64_t>(
      std::llround(e.point * static_cast<double>(e.trials)));
  return numeric::WilsonInterval(events, e.trials);
}

TEST(ClusteredIntervalRegressionTest, GlitchIntervalWiderThanPooled) {
  // One slow sweep glitches many streams at once, so the round-clustered
  // interval must be wider than the pooled Wilson interval that pretends
  // the (stream, round) events are independent.
  RoundSimulator simulator = MakeIntervalSimulator(30, 5);
  const ProbabilityEstimate c = simulator.EstimateGlitchProbability(4000);
  const numeric::ProportionInterval p = PooledInterval(c);
  EXPECT_DOUBLE_EQ(c.point, p.point);
  EXPECT_GT(c.point, 0.0) << "need glitches for the comparison to bite";
  EXPECT_GT(c.ci_upper - c.ci_lower, p.upper - p.lower);
  EXPECT_LE(c.ci_lower, c.point);
  EXPECT_GE(c.ci_upper, c.point);
  EXPECT_EQ(c.trials, 4000 * 30);
}

TEST(ClusteredIntervalRegressionTest, ErrorIntervalWiderThanPooled) {
  // The num_streams samples of one lifetime share the same m rounds: the
  // lifetime-clustered interval dominates the pooled one.
  RoundSimulator simulator = MakeIntervalSimulator(30, 17);
  const ProbabilityEstimate c =
      simulator.EstimateErrorProbability(/*m=*/20, /*g=*/1, /*lifetimes=*/60);
  const numeric::ProportionInterval p = PooledInterval(c);
  EXPECT_DOUBLE_EQ(c.point, p.point);
  EXPECT_GT(c.point, 0.0);
  EXPECT_LT(c.point, 1.0);
  EXPECT_GE(c.ci_upper - c.ci_lower, p.upper - p.lower);
  EXPECT_LE(c.ci_lower, c.point);
  EXPECT_GE(c.ci_upper, c.point);
}

TEST(ClusteredIntervalRegressionTest, ErrorProbabilityMatchesBinomialTail) {
  // Per stream, glitches across the m i.i.d. rounds of a lifetime are
  // ~Binomial(m, p_glitch), so P[>= g glitches] should agree with the
  // exact binomial tail at the measured p_glitch. The cluster-robust CI
  // must cover the binomial prediction.
  const int n = 30;
  const int m = 20;
  const int g = 1;
  RoundSimulator for_glitch = MakeIntervalSimulator(n, 23);
  const double p_glitch = for_glitch.EstimateGlitchProbability(6000).point;
  ASSERT_GT(p_glitch, 0.0);
  const double predicted = core::BinomialTailExact(m, p_glitch, g);

  RoundSimulator for_error = MakeIntervalSimulator(n, 29);
  const ProbabilityEstimate estimate =
      for_error.EstimateErrorProbability(m, g, /*lifetimes=*/100);
  EXPECT_GE(predicted, estimate.ci_lower);
  EXPECT_LE(predicted, estimate.ci_upper);
  EXPECT_NEAR(estimate.point, predicted, 0.5 * predicted + 0.02);
}

// --------------------------------------------------------------------------
// Disturbance determinism (dedicated RNG substream)

TEST(DisturbanceTest, ConstantDelayShiftsRoundsByExactlyNDelay) {
  // probability = 1 with a degenerate [d, d] delay adds exactly N * d to
  // every round. The long round length keeps both runs glitch-free, so
  // the arm states stay in lockstep and the identity is exact.
  const int n = 20;
  const double d = 0.01;
  DisturbanceConfig constant;
  constant.probability = 1.0;
  constant.delay_min_s = d;
  constant.delay_max_s = d;

  SimulatorConfig config;
  config.round_length_s = 10.0;
  config.seed = 61;
  config.disturbance = constant;
  auto disturbed = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(disturbed.ok());
  config.disturbance = DisturbanceConfig{};
  auto clean = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(clean.ok());

  for (int r = 0; r < 200; ++r) {
    const double with_delay = disturbed->RunRound().total_service_time_s;
    const double without = clean->RunRound().total_service_time_s;
    EXPECT_NEAR(with_delay, without + n * d, 1e-9) << "round " << r;
  }
}

TEST(DisturbanceTest, ZeroProbabilityTraceBitIdenticalToClean) {
  // Enabling the disturbance machinery with probability 0 must not perturb
  // the main RNG stream: the full round traces are bit-identical.
  DisturbanceConfig off;
  off.probability = 0.0;
  off.delay_min_s = 0.05;  // would matter if any delay were drawn
  off.delay_max_s = 0.5;

  obs::RoundTraceRecorder disturbed_trace;
  SimulatorConfig config;
  config.seed = 67;
  config.disturbance = off;
  config.trace = &disturbed_trace;
  auto disturbed = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(disturbed.ok());

  obs::RoundTraceRecorder clean_trace;
  config.disturbance = DisturbanceConfig{};
  config.trace = &clean_trace;
  auto clean = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(clean.ok());

  for (int r = 0; r < 100; ++r) {
    disturbed->RunRound();
    clean->RunRound();
  }
  const std::vector<obs::RoundTraceEvent> a = disturbed_trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> b = clean_trace.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].service_time_s, b[i].service_time_s);  // bit-identical
    EXPECT_EQ(a[i].seek_s, b[i].seek_s);
    EXPECT_EQ(a[i].rotation_s, b[i].rotation_s);
    EXPECT_EQ(a[i].transfer_s, b[i].transfer_s);
    EXPECT_EQ(a[i].disturbances, 0);
    EXPECT_EQ(a[i].zone_hits, b[i].zone_hits);
  }
}

// --------------------------------------------------------------------------
// Observability wiring

TEST(ObservabilityTest, HistogramMeanMatchesOutcomesExactly) {
  obs::Registry registry;
  SimulatorConfig config;
  config.seed = 71;
  config.metrics = &registry;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(simulator.ok());

  const int rounds = 500;
  double sum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    sum += simulator->RunRound().total_service_time_s;
  }
  const obs::HistogramSnapshot snapshot =
      registry.GetHistogram("sim.round.service_time_s")->Snapshot();
  EXPECT_EQ(snapshot.count, rounds);
  EXPECT_NEAR(snapshot.mean(), sum / rounds, 1e-12);
  EXPECT_EQ(registry.GetCounter("sim.rounds")->value(), rounds);
  EXPECT_EQ(registry.GetCounter("sim.requests")->value(), 26 * rounds);
  EXPECT_EQ(simulator->rounds_run(), rounds);
}

TEST(ObservabilityTest, TraceDecompositionIdentityHolds) {
  // service == seek + rotation + transfer + disturbance for every event,
  // including the charged return seek and injected delays.
  DisturbanceConfig tcal;
  tcal.probability = 0.1;
  tcal.delay_min_s = 0.001;
  tcal.delay_max_s = 0.01;
  obs::RoundTraceRecorder trace;
  SimulatorConfig config;
  config.seed = 73;
  config.policy = sched::ServicePolicy::kCScan;
  config.disturbance = tcal;
  config.trace = &trace;
  config.trace_source_id = 9;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(simulator.ok());
  for (int r = 0; r < 200; ++r) simulator->RunRound();

  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 200u);
  int64_t total_hits = 0;
  for (const obs::RoundTraceEvent& event : events) {
    EXPECT_EQ(event.source_id, 9);
    EXPECT_EQ(event.num_requests, 26);
    EXPECT_NEAR(event.service_time_s,
                event.seek_s + event.rotation_s + event.transfer_s +
                    event.disturbance_delay_s,
                1e-9 * event.service_time_s + 1e-12);
    ASSERT_EQ(event.zone_hits.size(),
              static_cast<size_t>(disk::QuantumViking2100().num_zones()));
    for (int32_t hits : event.zone_hits) total_hits += hits;
  }
  EXPECT_EQ(total_hits, 26 * 200);
}

// --------------------------------------------------------------------------
// Structured fault injection

class FaultKernelTest : public ::testing::Test {
 protected:
  RoundSimulator MakeFaulty(int n, SimulatorConfig config) {
    auto simulator = RoundSimulator::Create(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
        RoundSimulator::IidFactory(Table1Sizes()), config);
    ZS_CHECK(simulator.ok());
    return *std::move(simulator);
  }
};

TEST_F(FaultKernelTest, InertFaultModelTraceBitIdenticalToClean) {
  // A configured slowdown that never activates (enter probability 0) runs
  // the whole injection path — BeginRound, per-request DelayFor, rate
  // multipliers — yet must not perturb the main stream: full traces stay
  // bit-identical to the fault-free run.
  fault::MarkovSlowdownSpec inert;
  inert.enter_per_round = 0.0;
  inert.exit_per_round = 1.0;
  inert.delay_min_s = 0.05;  // would matter if any delay were injected
  inert.delay_max_s = 0.5;

  obs::RoundTraceRecorder faulty_trace;
  SimulatorConfig config;
  config.seed = 83;
  config.trace = &faulty_trace;
  config.faults.slowdowns.push_back(inert);
  RoundSimulator faulty = MakeFaulty(26, config);

  obs::RoundTraceRecorder clean_trace;
  config.faults = fault::FaultSpec{};
  config.trace = &clean_trace;
  RoundSimulator clean = MakeFaulty(26, config);

  for (int r = 0; r < 100; ++r) {
    faulty.RunRound();
    clean.RunRound();
  }
  const std::vector<obs::RoundTraceEvent> a = faulty_trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> b = clean_trace.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].service_time_s, b[i].service_time_s);  // bit-identical
    EXPECT_EQ(a[i].seek_s, b[i].seek_s);
    EXPECT_EQ(a[i].rotation_s, b[i].rotation_s);
    EXPECT_EQ(a[i].transfer_s, b[i].transfer_s);
    EXPECT_EQ(a[i].fault_delay_s, 0.0);
    EXPECT_EQ(a[i].faulted_requests, 0);
    EXPECT_FALSE(a[i].disk_failed);
    EXPECT_EQ(a[i].zone_hits, b[i].zone_hits);
  }
}

TEST_F(FaultKernelTest, ForcedSlowdownEpochShowsUpExactlyInTrace) {
  fault::MarkovSlowdownSpec slowdown;
  slowdown.per_request_probability = 1.0;
  slowdown.delay_min_s = 0.01;
  slowdown.delay_max_s = 0.01;  // degenerate: every request +10 ms exactly
  slowdown.force_from_round = 10;
  slowdown.force_until_round = 20;

  obs::RoundTraceRecorder trace;
  SimulatorConfig config;
  config.seed = 89;
  config.trace = &trace;
  config.faults.slowdowns.push_back(slowdown);
  // Light load: even with the epoch's extra delay no round overruns, so
  // the arm trajectory never depends on deadline cuts and the fault's
  // effect is purely additive.
  constexpr int kStreams = 10;
  RoundSimulator faulty = MakeFaulty(kStreams, config);

  config.faults = fault::FaultSpec{};
  config.trace = nullptr;
  RoundSimulator clean = MakeFaulty(kStreams, config);

  for (int r = 0; r < 30; ++r) {
    const RoundOutcome with_fault = faulty.RunRound();
    const RoundOutcome without = clean.RunRound();
    ASSERT_FALSE(with_fault.overran) << "round " << r;
    const bool in_window = r >= 10 && r < 20;
    // The epoch adds exactly num_streams * 10 ms of busy time; outside the
    // window the sample paths coincide bit for bit.
    if (in_window) {
      EXPECT_NEAR(with_fault.total_service_time_s,
                  without.total_service_time_s + kStreams * 0.01, 1e-9)
          << "round " << r;
    } else {
      EXPECT_EQ(with_fault.total_service_time_s,
                without.total_service_time_s)
          << "round " << r;
    }
  }
  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 30u);
  for (int r = 0; r < 30; ++r) {
    const bool in_window = r >= 10 && r < 20;
    EXPECT_EQ(events[r].faulted_requests, in_window ? kStreams : 0)
        << "round " << r;
    EXPECT_NEAR(events[r].fault_delay_s, in_window ? kStreams * 0.01 : 0.0,
                1e-12)
        << "round " << r;
    // The decomposition identity holds with the fault component in place.
    EXPECT_NEAR(obs::RoundTraceImbalance(events[r]), 0.0,
                1e-9 * events[r].service_time_s + 1e-12)
        << "round " << r;
  }
}

TEST_F(FaultKernelTest, DiskFailedRoundsGlitchEveryStreamAndServeNothing) {
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 5;
  failure.repair_after_rounds = 3;

  obs::RoundTraceRecorder trace;
  obs::Registry metrics;
  SimulatorConfig config;
  config.seed = 97;
  config.trace = &trace;
  config.metrics = &metrics;
  config.faults.disk_failures.push_back(failure);
  constexpr int kStreams = 20;
  RoundSimulator simulator = MakeFaulty(kStreams, config);

  for (int r = 0; r < 12; ++r) {
    const RoundOutcome outcome = simulator.RunRound();
    const bool failed = r >= 5 && r < 8;
    if (failed) {
      EXPECT_EQ(outcome.total_service_time_s, 0.0) << "round " << r;
      EXPECT_FALSE(outcome.overran);
      ASSERT_EQ(outcome.glitched_streams.size(),
                static_cast<size_t>(kStreams));
      for (int s = 0; s < kStreams; ++s) {
        EXPECT_EQ(outcome.glitched_streams[s], s);
      }
    } else {
      EXPECT_GT(outcome.total_service_time_s, 0.0) << "round " << r;
    }
  }
  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 12u);
  for (int r = 0; r < 12; ++r) {
    const bool failed = r >= 5 && r < 8;
    EXPECT_EQ(events[r].disk_failed, failed) << "round " << r;
    EXPECT_EQ(events[r].num_requests, kStreams);
    if (failed) {
      EXPECT_EQ(events[r].truncated_requests, kStreams);
      EXPECT_EQ(events[r].leftover_s, 1.0);  // idle for the whole round
      // The round's requests were still drawn (the zone tallies prove it)
      // even though nothing was served.
      int32_t hits = 0;
      for (int32_t h : events[r].zone_hits) hits += h;
      EXPECT_EQ(hits, kStreams);
    }
  }
  EXPECT_EQ(metrics.GetCounter("sim.fault.disk_failed_rounds")->value(), 3);
}

// --------------------------------------------------------------------------
// Deadline truncation accounting

TEST(TruncationKernelTest, TruncatedTraceRespectsDeadlineAndInvariant) {
  // Overloaded disk (far past the admissible limit) with disturbances and
  // a permanent slowdown, so the cut lands in varied phases.
  DisturbanceConfig tcal;
  tcal.probability = 0.1;
  tcal.delay_min_s = 0.001;
  tcal.delay_max_s = 0.01;
  fault::MarkovSlowdownSpec slowdown;
  slowdown.per_request_probability = 0.3;
  slowdown.delay_min_s = 0.001;
  slowdown.delay_max_s = 0.02;
  slowdown.force_from_round = 0;
  slowdown.force_until_round = 1 << 20;

  obs::RoundTraceRecorder trace;
  SimulatorConfig config;
  config.seed = 101;
  config.truncate_at_deadline = true;
  config.disturbance = tcal;
  config.faults.slowdowns.push_back(slowdown);
  config.trace = &trace;
  auto truncating = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 40,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(truncating.ok());

  obs::RoundTraceRecorder full_trace;
  config.truncate_at_deadline = false;
  config.trace = &full_trace;
  auto untruncated = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 40,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(untruncated.ok());

  int overruns = 0;
  for (int r = 0; r < 150; ++r) {
    const RoundOutcome a = truncating->RunRound();
    const RoundOutcome b = untruncated->RunRound();
    // Truncation is trace accounting only: outcomes stay bit-identical.
    EXPECT_EQ(a.total_service_time_s, b.total_service_time_s);
    EXPECT_EQ(a.overran, b.overran);
    EXPECT_EQ(a.glitched_streams, b.glitched_streams);
    overruns += a.overran;
  }
  ASSERT_GT(overruns, 0);  // the load must actually overrun

  const std::vector<obs::RoundTraceEvent> cut = trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> full = full_trace.Snapshot();
  ASSERT_EQ(cut.size(), 150u);
  for (size_t i = 0; i < cut.size(); ++i) {
    // Truncated components are summed in the invariant's order, so the
    // residual is identically zero, not just small.
    EXPECT_EQ(obs::RoundTraceImbalance(cut[i]), 0.0) << "round " << i;
    // Regrouping the per-phase takes into category sums costs at most a
    // few ulps against the sequentially-clipped round length.
    EXPECT_LE(cut[i].service_time_s, 1.0 + 1e-12) << "round " << i;
    if (cut[i].overran) {
      EXPECT_GE(cut[i].truncated_requests, 1) << "round " << i;
      EXPECT_NEAR(cut[i].leftover_s, 0.0, 1e-12) << "round " << i;
      EXPECT_LT(cut[i].service_time_s, full[i].service_time_s);
    } else {
      // Non-overrun rows never engage the truncation path: bit-identical
      // to the historical trace values.
      EXPECT_EQ(cut[i].truncated_requests, 0);
      EXPECT_EQ(cut[i].service_time_s, full[i].service_time_s);
      EXPECT_EQ(cut[i].seek_s, full[i].seek_s);
      EXPECT_EQ(cut[i].rotation_s, full[i].rotation_s);
      EXPECT_EQ(cut[i].transfer_s, full[i].transfer_s);
      EXPECT_EQ(cut[i].disturbance_delay_s, full[i].disturbance_delay_s);
      EXPECT_EQ(cut[i].fault_delay_s, full[i].fault_delay_s);
    }
  }
}

TEST(ObservabilityTest, NullHooksBehaveIdenticallyToWired) {
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  SimulatorConfig config;
  config.seed = 79;
  config.metrics = &registry;
  config.trace = &trace;
  auto wired = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(wired.ok());
  RoundSimulator bare = MakeSimulator(26, 79);
  for (int r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(wired->RunRound().total_service_time_s,
                     bare.RunRound().total_service_time_s);
  }
}

}  // namespace
}  // namespace zonestream::sim
