#include "sim/replication.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/statistics.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> TestSizes() {
  auto sizes = workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3);
  ZS_CHECK(sizes.ok());
  return std::make_shared<workload::GammaSizeDistribution>(*sizes);
}

SimulatorConfig TestConfig() {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  return config;
}

// The headline determinism contract: every statistic of a replicated run
// is BIT-identical regardless of the executing pool's thread count,
// because replication r's sample path depends only on (base_seed, r) and
// the reduction order is fixed. EXPECT_EQ on doubles is deliberate.
TEST(ReplicationTest, LateProbabilityBitIdenticalAcrossThreadCounts) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  common::ThreadPool one(1);
  ReplicationOptions reference_options;
  reference_options.replications = 20;
  reference_options.pool = &one;
  const auto reference = EstimateLateProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      TestConfig(), /*rounds_per_replication=*/25, reference_options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->trials, 20 * 25);

  for (int threads : {2, 8}) {
    common::ThreadPool pool(threads);
    ReplicationOptions options = reference_options;
    options.pool = &pool;
    const auto estimate = EstimateLateProbabilityReplicated(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
        factory, TestConfig(), 25, options);
    ASSERT_TRUE(estimate.ok());
    EXPECT_EQ(estimate->point, reference->point) << threads << " threads";
    EXPECT_EQ(estimate->ci_lower, reference->ci_lower);
    EXPECT_EQ(estimate->ci_upper, reference->ci_upper);
    EXPECT_EQ(estimate->trials, reference->trials);
  }
}

TEST(ReplicationTest, GlitchProbabilityBitIdenticalAcrossThreadCounts) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  common::ThreadPool one(1);
  ReplicationOptions options;
  options.replications = 12;
  options.pool = &one;
  const auto reference = EstimateGlitchProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28, factory,
      TestConfig(), /*rounds_per_replication=*/20, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->trials, int64_t{12} * 20 * 28);

  common::ThreadPool eight(8);
  options.pool = &eight;
  const auto parallel = EstimateGlitchProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28, factory,
      TestConfig(), 20, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->point, reference->point);
  EXPECT_EQ(parallel->ci_lower, reference->ci_lower);
  EXPECT_EQ(parallel->ci_upper, reference->ci_upper);
}

TEST(ReplicationTest, ServiceTimeStatsBitIdenticalAcrossThreadCounts) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  common::ThreadPool one(1);
  ReplicationOptions options;
  options.replications = 16;
  options.pool = &one;
  const auto reference = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      TestConfig(), /*rounds_per_replication=*/15, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->count(), int64_t{16} * 15);

  common::ThreadPool eight(8);
  options.pool = &eight;
  const auto parallel = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      TestConfig(), 15, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->mean(), reference->mean());
  EXPECT_EQ(parallel->variance(), reference->variance());
  EXPECT_EQ(parallel->count(), reference->count());
}

TEST(ReplicationTest, DistinctSubstreamsProduceDistinctSamplePaths) {
  // Replications must not accidentally share a seed. If substream 1
  // duplicated substream 0, the two-replication pooled mean would equal
  // the one-replication mean exactly (continuous-valued service times
  // cannot collide by chance).
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  ReplicationOptions two;
  two.replications = 2;
  const auto pooled = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      TestConfig(), /*rounds_per_replication=*/30, two);
  ASSERT_TRUE(pooled.ok());

  ReplicationOptions single;
  single.replications = 1;
  const auto first = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      TestConfig(), 30, single);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(pooled->count(), 60);
  EXPECT_EQ(first->count(), 30);
  EXPECT_NE(pooled->mean(), first->mean());
}

TEST(ReplicationTest, BaseSeedChangesSamplePath) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  ReplicationOptions a;
  a.replications = 10;
  a.base_seed = 1;
  ReplicationOptions b = a;
  b.base_seed = 2;
  // Compare a continuous statistic: integer late counts can collide
  // across seeds, but two independent 400-sample service-time means
  // cannot.
  const auto ea = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 27, factory,
      TestConfig(), 40, a);
  const auto eb = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 27, factory,
      TestConfig(), 40, b);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea->count(), eb->count());
  EXPECT_NE(ea->mean(), eb->mean());
}

TEST(ReplicationTest, InvalidShardingIsRejected) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  ReplicationOptions options;
  options.replications = 0;
  EXPECT_FALSE(EstimateLateProbabilityReplicated(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   26, factory, TestConfig(), 10, options)
                   .ok());
  options.replications = 4;
  EXPECT_FALSE(EstimateLateProbabilityReplicated(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   26, factory, TestConfig(), 0, options)
                   .ok());
}

TEST(ReplicationTest, InvalidSimulatorArgumentsSurfaceAsStatus) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  ReplicationOptions options;
  options.replications = 2;
  // Zero streams is rejected by RoundSimulator::Create; the replicated
  // wrapper must surface that as a status, not crash on a worker thread.
  EXPECT_FALSE(EstimateLateProbabilityReplicated(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   0, factory, TestConfig(), 10, options)
                   .ok());
}

TEST(ReplicationTest, DisabledDisturbanceBitIdenticalAtAnyThreadCount) {
  // Enabling the disturbance machinery with probability 0 must leave the
  // replicated statistics bit-identical to a config without it, at every
  // thread count: the injected delays live on their own RNG substream.
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  SimulatorConfig with_off_disturbance = TestConfig();
  with_off_disturbance.disturbance.probability = 0.0;
  with_off_disturbance.disturbance.delay_min_s = 0.05;
  with_off_disturbance.disturbance.delay_max_s = 0.5;

  common::ThreadPool one(1);
  ReplicationOptions reference_options;
  reference_options.replications = 10;
  reference_options.pool = &one;
  const auto reference = SampleServiceTimesReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      TestConfig(), /*rounds_per_replication=*/20, reference_options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {1, 4}) {
    common::ThreadPool pool(threads);
    ReplicationOptions options = reference_options;
    options.pool = &pool;
    const auto stats = SampleServiceTimesReplicated(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
        with_off_disturbance, /*rounds_per_replication=*/20, options);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->mean(), reference->mean()) << threads;
    EXPECT_EQ(stats->variance(), reference->variance()) << threads;
    EXPECT_EQ(stats->min(), reference->min()) << threads;
    EXPECT_EQ(stats->max(), reference->max()) << threads;
  }
}

TEST(ReplicationTest, GlitchIntervalClusteredWiderThanLegacyPooled) {
  // The round-clustered interval is wider than the pooled Wilson interval
  // over the same events and trials, which treats the correlated
  // (stream, round) events as independent.
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  ReplicationOptions options;
  options.replications = 8;
  const int n = 30;  // loaded enough to glitch
  const auto clustered = EstimateGlitchProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n, factory,
      TestConfig(), /*rounds_per_replication=*/500, options);
  ASSERT_TRUE(clustered.ok());
  const int64_t events = std::llround(
      clustered->point * static_cast<double>(clustered->trials));
  const numeric::ProportionInterval pooled =
      numeric::WilsonInterval(events, clustered->trials);
  EXPECT_DOUBLE_EQ(clustered->point, pooled.point);
  EXPECT_GT(clustered->point, 0.0);
  EXPECT_GT(clustered->ci_upper - clustered->ci_lower,
            pooled.upper - pooled.lower);
}

TEST(ReplicationTest, SharedObsHooksCollectAcrossReplications) {
  const auto factory = RoundSimulator::IidFactory(TestSizes());
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  SimulatorConfig config = TestConfig();
  config.metrics = &registry;
  config.trace = &trace;
  common::ThreadPool pool(4);
  ReplicationOptions options;
  options.replications = 6;
  options.pool = &pool;
  const auto estimate = EstimateLateProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26, factory,
      config, /*rounds_per_replication=*/30, options);
  ASSERT_TRUE(estimate.ok());
  // The probe simulator registers metrics but runs no rounds; only the 6
  // replications contribute samples.
  EXPECT_EQ(registry.GetCounter("sim.rounds")->value(), 6 * 30);
  EXPECT_EQ(registry.GetCounter("sim.requests")->value(), 6 * 30 * 26);

  // Trace events interleave across threads, but each replication's events
  // carry its index as source_id and stay internally ordered.
  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 6u * 30u);
  std::vector<int64_t> next_round(6, 0);
  for (const obs::RoundTraceEvent& event : events) {
    ASSERT_GE(event.source_id, 0);
    ASSERT_LT(event.source_id, 6);
    EXPECT_EQ(event.round, next_round[event.source_id]++);
  }
  for (int r = 0; r < 6; ++r) EXPECT_EQ(next_round[r], 30);
}

}  // namespace
}  // namespace zonestream::sim
