#include "sim/prefetch_simulator.h"

#include <memory>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> Table1Sizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
}

PrefetchRoundSimulator MakeSimulator(int n, int buffer, uint64_t seed = 3) {
  PrefetchSimulatorConfig config;
  config.round_length_s = 1.0;
  config.buffer_fragments = buffer;
  config.seed = seed;
  auto simulator = PrefetchRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      Table1Sizes(), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

TEST(PrefetchSimulatorTest, CreateValidation) {
  PrefetchSimulatorConfig config;
  EXPECT_FALSE(PrefetchRoundSimulator::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   0, Table1Sizes(), config)
                   .ok());
  EXPECT_FALSE(PrefetchRoundSimulator::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   5, nullptr, config)
                   .ok());
  config.buffer_fragments = -1;
  EXPECT_FALSE(PrefetchRoundSimulator::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   5, Table1Sizes(), config)
                   .ok());
}

TEST(PrefetchSimulatorTest, ZeroBufferMatchesBufferlessModel) {
  // buffer = 0 must reproduce the paper's model: every stream issues a
  // mandatory request every round and glitch rates match RoundSimulator's
  // per-stream glitch estimate (same mechanics, same regime).
  const int n = 29;
  PrefetchRoundSimulator prefetch = MakeSimulator(n, 0, 11);
  const PrefetchRunResult result = prefetch.Run(20000, /*warmup=*/0);
  EXPECT_EQ(result.mandatory_requests,
            static_cast<int64_t>(20000) * n);
  EXPECT_EQ(result.prefetched_fragments, 0);
  EXPECT_DOUBLE_EQ(result.mean_buffer_level, 0.0);

  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 11;
  auto plain = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(plain.ok());
  const ProbabilityEstimate baseline = plain->EstimateGlitchProbability(20000);
  EXPECT_NEAR(result.glitch_rate, baseline.point,
              0.5 * baseline.point + 2e-4);
}

TEST(PrefetchSimulatorTest, BufferReducesGlitchRate) {
  // At N = 30 (above the bufferless admission limit) a small client
  // buffer should absorb most overruns.
  const int n = 30;
  const PrefetchRunResult none = MakeSimulator(n, 0).Run(12000);
  const PrefetchRunResult two = MakeSimulator(n, 2).Run(12000);
  ASSERT_GT(none.glitches, 50);
  EXPECT_LT(two.glitch_rate, 0.25 * none.glitch_rate);
}

TEST(PrefetchSimulatorTest, GlitchRateMonotoneInBufferDepth) {
  const int n = 31;
  double prev = 1.0;
  for (int buffer : {0, 1, 2, 4}) {
    const PrefetchRunResult result = MakeSimulator(n, buffer, 7).Run(8000);
    EXPECT_LE(result.glitch_rate, prev + 5e-4) << buffer;
    prev = result.glitch_rate;
  }
}

TEST(PrefetchSimulatorTest, BuffersFillUnderLightLoad) {
  // With 20 streams the disk has ample idle time: buffers sit near full
  // and mandatory requests become rare after warmup.
  const PrefetchRunResult result = MakeSimulator(20, 3).Run(3000);
  EXPECT_GT(result.mean_buffer_level, 2.5);
  EXPECT_EQ(result.glitches, 0);
  // Steady state: one fragment consumed per stream-round, so prefetches +
  // mandatory ~ stream_rounds.
  EXPECT_NEAR(static_cast<double>(result.prefetched_fragments +
                                  result.mandatory_requests),
              static_cast<double>(result.stream_rounds),
              0.05 * result.stream_rounds);
}

TEST(PrefetchSimulatorTest, ConservationOfWork) {
  // Every displayed fragment was fetched exactly once (mandatory or
  // prefetched); glitched rounds consume nothing.
  const PrefetchRunResult result = MakeSimulator(28, 2, 19).Run(5000);
  const int64_t fetched =
      result.mandatory_requests + result.prefetched_fragments;
  // Fetched fragments cannot exceed stream-rounds by more than the total
  // buffer capacity (filled buffers at the end), nor fall below
  // stream_rounds - glitches - buffer capacity.
  EXPECT_LE(fetched, result.stream_rounds + 28 * 2 + 28);
  EXPECT_GE(fetched, result.stream_rounds - result.glitches - 28 * 2 - 28);
}

TEST(PrefetchSimulatorTest, SamplePathIsPinned) {
  // Values captured before the mandatory batch moved onto
  // sched::ScanKernel; the move keeps every draw, so the counts and the
  // buffer level stay exact. N = 30 with no buffer glitches in the SCAN
  // ledger; N = 32 with two fragments of buffer also prefetches.
  PrefetchRoundSimulator bufferless = MakeSimulator(30, 0, 77);
  const PrefetchRunResult a = bufferless.Run(400, /*warmup=*/50);
  EXPECT_EQ(a.glitches, 23);
  EXPECT_EQ(a.mandatory_requests, 12000);
  EXPECT_EQ(a.prefetched_fragments, 0);

  PrefetchRoundSimulator buffered = MakeSimulator(32, 2, 77);
  const PrefetchRunResult b = buffered.Run(400, /*warmup=*/50);
  EXPECT_EQ(b.glitches, 2);
  EXPECT_EQ(b.mandatory_requests, 9842);
  EXPECT_EQ(b.prefetched_fragments, 2971);
  EXPECT_EQ(b.mean_buffer_level, 0.23210937500000001);
}

}  // namespace
}  // namespace zonestream::sim
