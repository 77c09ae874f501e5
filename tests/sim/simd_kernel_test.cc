// The SIMD dispatch contract (numeric/simd.h): every accelerated tier
// computes BIT-IDENTICAL results to the scalar reference — same values,
// same engine consumption — so tier choice affects throughput only and
// goldens/checkpoints are host-independent. Each test runs the same
// computation under every tier the host supports (ForceSimdTier caps at
// the detected tier, so on a scalar-only host the comparisons degenerate
// to scalar-vs-scalar and pass vacuously).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "disk/presets.h"
#include "numeric/mt19937_64.h"
#include "numeric/random.h"
#include "numeric/simd.h"
#include "numeric/sort_network.h"
#include "sched/batch_kernels.h"
#include "sim/importance_sampling.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

using numeric::SimdTier;

// Restores the detected tier when a test exits (ForceSimdTier is global
// state; leaking a lowered tier would silently de-accelerate and
// de-cover the remaining tests).
class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier) { numeric::ForceSimdTier(tier); }
  ~ScopedTier() { numeric::ForceSimdTier(numeric::DetectedSimdTier()); }
};

std::vector<SimdTier> AllTiers() {
  return {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512};
}

std::shared_ptr<const workload::SizeDistribution> Table1Sizes() {
  auto sizes = workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3);
  ZS_CHECK(sizes.ok());
  return std::make_shared<workload::GammaSizeDistribution>(*sizes);
}

// --------------------------------------------------------------------------
// Sort network.

TEST(SimdKernelTest, SortNetworkMatchesStdSortOnEveryTier) {
  numeric::Rng rng(20260808);
  for (size_t n = 0; n <= numeric::kSortNetworkMaxN; ++n) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<uint32_t> keys(n);
      for (auto& k : keys) {
        // Mix full-range keys with small ones to force duplicates.
        k = (rep % 2 == 0)
                ? static_cast<uint32_t>(rng.Uniform01() * 4294967296.0)
                : static_cast<uint32_t>(rng.Uniform01() * 8.0);
      }
      std::vector<uint32_t> expected = keys;
      std::sort(expected.begin(), expected.end());
      for (SimdTier tier : AllTiers()) {
        ScopedTier forced(tier);
        std::vector<uint32_t> got = keys;
        numeric::SortU32Network(got.data(), n);
        EXPECT_EQ(got, expected)
            << "n=" << n << " tier=" << numeric::SimdTierName(tier);
      }
    }
  }
}

TEST(SimdKernelTest, SortNetworkHandlesSentinelValues) {
  // The network pads with UINT32_MAX internally; caller keys equal to
  // the sentinel must still sort (they merely join the pad region).
  std::vector<uint32_t> keys = {UINT32_MAX, 0, UINT32_MAX, 5, 5, 1};
  std::vector<uint32_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  for (SimdTier tier : AllTiers()) {
    ScopedTier forced(tier);
    std::vector<uint32_t> got = keys;
    numeric::SortU32Network(got.data(), got.size());
    EXPECT_EQ(got, expected) << numeric::SimdTierName(tier);
  }
}

// --------------------------------------------------------------------------
// Element-wise sweep kernels.

TEST(SimdKernelTest, TransferTimesBitIdenticalToScalarDivision) {
  numeric::Rng rng(7);
  for (size_t n : {1u, 7u, 8u, 15u, 64u, 100u}) {
    std::vector<double> bytes(n), rate(n), expected(n);
    for (size_t i = 0; i < n; ++i) {
      bytes[i] = 1e3 + rng.Uniform01() * 1e6;
      rate[i] = 1e6 + rng.Uniform01() * 1e7;
      expected[i] = bytes[i] / rate[i];
    }
    for (SimdTier tier : AllTiers()) {
      ScopedTier forced(tier);
      std::vector<double> got(n);
      sched::internal::TransferTimes(bytes.data(), rate.data(), got.data(), n);
      EXPECT_EQ(got, expected)
          << "n=" << n << " tier=" << numeric::SimdTierName(tier);
    }
  }
}

TEST(SimdKernelTest, SeekTimesBitIdenticalToScalarModel) {
  const auto seek = disk::QuantumViking2100Seek();
  numeric::Rng rng(11);
  const size_t n = 96;
  std::vector<double> distance(n), expected(n);
  for (size_t i = 0; i < n; ++i) {
    // Cover the piecewise boundary region, long seeks and the <= 0 clamp.
    distance[i] = rng.Uniform01() * 2500.0 - 10.0;
    expected[i] = seek.SeekTime(distance[i]);
  }
  for (SimdTier tier : AllTiers()) {
    ScopedTier forced(tier);
    std::vector<double> got(n);
    sched::internal::SeekTimes(seek, distance.data(), got.data(), n);
    EXPECT_EQ(got, expected) << numeric::SimdTierName(tier);
  }
}

// --------------------------------------------------------------------------
// Engine and samplers: same values AND same consumption on every tier.

TEST(SimdKernelTest, EngineWordsIdenticalAcrossTiers) {
  std::vector<uint64_t> reference;
  {
    ScopedTier forced(SimdTier::kScalar);
    numeric::Mt19937_64 engine(321);
    reference.resize(1000);
    engine.FillRaw(reference.data(), reference.size());
  }
  for (SimdTier tier : AllTiers()) {
    ScopedTier forced(tier);
    numeric::Mt19937_64 engine(321);
    std::vector<uint64_t> got(reference.size());
    engine.FillRaw(got.data(), got.size());
    EXPECT_EQ(got, reference) << numeric::SimdTierName(tier);
  }
}

TEST(SimdKernelTest, FillUniform01MatchesPerCallDraws) {
  for (SimdTier tier : AllTiers()) {
    ScopedTier forced(tier);
    numeric::Rng batched(99);
    numeric::Rng serial(99);
    std::vector<double> got(257);
    batched.FillUniform01(got.data(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], serial.Uniform01())
          << "i=" << i << " tier=" << numeric::SimdTierName(tier);
    }
    // Same engine consumption: the next draw agrees too.
    EXPECT_EQ(batched.Uniform01(), serial.Uniform01());
  }
}

TEST(SimdKernelTest, GammaFillBitIdenticalAcrossTiers) {
  const numeric::GammaBatchSampler sampler(4.0, 50e3);
  std::vector<double> reference(512);
  double reference_next = 0.0;
  {
    ScopedTier forced(SimdTier::kScalar);
    numeric::Rng rng(2026);
    sampler.Fill(&rng, reference.data(), reference.size());
    reference_next = rng.Uniform01();
  }
  for (SimdTier tier : AllTiers()) {
    ScopedTier forced(tier);
    numeric::Rng rng(2026);
    std::vector<double> got(reference.size());
    sampler.Fill(&rng, got.data(), got.size());
    EXPECT_EQ(got, reference) << numeric::SimdTierName(tier);
    EXPECT_EQ(rng.Uniform01(), reference_next)
        << numeric::SimdTierName(tier);
  }
}

// --------------------------------------------------------------------------
// End-to-end: whole-round sample paths are tier-independent.

TEST(SimdKernelTest, RoundSimulatorSamplePathTierIndependent) {
  auto run = [](SimdTier tier) {
    ScopedTier forced(tier);
    SimulatorConfig config;
    config.round_length_s = 1.0;
    config.seed = 77;
    auto simulator = RoundSimulator::Create(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
        RoundSimulator::IidFactory(Table1Sizes()), config);
    ZS_CHECK(simulator.ok());
    std::vector<double> times;
    for (int i = 0; i < 200; ++i) {
      times.push_back(simulator->RunRound().total_service_time_s);
    }
    return times;
  };
  const std::vector<double> reference = run(SimdTier::kScalar);
  for (SimdTier tier : AllTiers()) {
    EXPECT_EQ(run(tier), reference) << numeric::SimdTierName(tier);
  }
}

TEST(SimdKernelTest, ImportanceSamplerSamplePathTierIndependent) {
  auto run = [](SimdTier tier) {
    ScopedTier forced(tier);
    SimulatorConfig config;
    config.round_length_s = 1.0;
    auto sampler = ImportanceSampler::Create(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 24,
        Table1Sizes(), config, ImportanceSamplingOptions{});
    ZS_CHECK(sampler.ok());
    sampler->ResetForReplication(55);
    std::vector<double> values;
    for (int i = 0; i < 200; ++i) {
      const TiltedRoundOutcome outcome = sampler->RunRound();
      values.push_back(outcome.total_service_time_s);
      values.push_back(outcome.log_weight);
    }
    return values;
  };
  const std::vector<double> reference = run(SimdTier::kScalar);
  for (SimdTier tier : AllTiers()) {
    EXPECT_EQ(run(tier), reference) << numeric::SimdTierName(tier);
  }
}

}  // namespace
}  // namespace zonestream::sim
