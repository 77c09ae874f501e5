// The SIMD dispatch contract (numeric/simd.h): every accelerated tier
// computes BIT-IDENTICAL results to the scalar reference — same values,
// same engine consumption — so tier choice affects throughput only and
// goldens/checkpoints are host-independent. Each test runs the same
// computation under every tier the host supports (ForceSimdTier caps at
// the detected tier, so on a scalar-only host the comparisons degenerate
// to scalar-vs-scalar and pass vacuously).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "disk/presets.h"
#include "numeric/gamma_internal.h"
#include "numeric/log1p.h"
#include "numeric/mt19937_64.h"
#include "numeric/random.h"
#include "numeric/random_simd.h"
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

// Every batch length around the 8-lane blocks (the last one partial, or
// below the wide tiers' minimum batch), at shapes from the exponential
// edge to nearly deterministic sizes.
TEST(SimdKernelTest, GammaFillBitIdenticalAcrossTiers) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(81);
  lengths.push_back(512);
  for (const double shape : {1.0, 1.5, 4.0, 4.43, 50.0, 1e4}) {
    const numeric::GammaBatchSampler sampler(shape, 50e3);
    for (const size_t n : lengths) {
      const uint64_t seed = 2026 + n;
      std::vector<double> reference(n);
      double reference_next = 0.0;
      {
        ScopedTier forced(SimdTier::kScalar);
        numeric::Rng rng(seed);
        sampler.Fill(&rng, reference.data(), n);
        reference_next = rng.Uniform01();
      }
      for (SimdTier tier : AllTiers()) {
        ScopedTier forced(tier);
        numeric::Rng rng(seed);
        std::vector<double> got(n);
        sampler.Fill(&rng, got.data(), n);
        EXPECT_EQ(got, reference) << numeric::SimdTierName(tier)
                                  << " shape=" << shape << " n=" << n;
        EXPECT_EQ(rng.Uniform01(), reference_next)
            << numeric::SimdTierName(tier) << " shape=" << shape
            << " n=" << n;
      }
    }
  }
}

// Reads the engine like the wide sampler's window does, so a test can
// replay GammaBatchSampler::Fill's scalar walk one draw at a time and
// count each draw's words.
struct CountingWords {
  numeric::Mt19937_64* engine;
  size_t count = 0;
  uint64_t operator()() {
    ++count;
    return (*engine)();
  }
};

// The scalar draws of a batch: values (unscaled) and words per draw.
void ScalarDraws(uint64_t seed, double shape, size_t n,
                 std::vector<size_t>* words) {
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  numeric::Mt19937_64 engine(seed);
  CountingWords source{&engine};
  words->clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t before = source.count;
    numeric::internal::MarsagliaTsangDraw(
        source, numeric::internal::NormalZiggurat(), d, c);
    words->push_back(source.count - before);
  }
}

// Whether the wide walk's first window (min(2n + 16, 312) words, as
// random_simd.cc sizes it) ends inside a deviating lane's scalar redraw
// on a tier of `lanes` lanes. A draw that reads exactly its two nominal
// words is one the block accepts on its first try; the walk peeks a new
// window before a block whose live lanes' words do not fit.
bool RedrawCrossesFirstWindow(const std::vector<size_t>& words,
                              size_t lanes) {
  const size_t n = words.size();
  const size_t window = std::min<size_t>(2 * n + 16, 312);
  size_t pos = 0;
  size_t i = 0;
  while (i < n) {
    const size_t live = std::min(n - i, lanes);
    if (window - pos < 2 * live) return false;
    size_t j = 0;
    while (j < live && words[i + j] == 2) ++j;
    pos += 2 * j;
    i += j;
    if (j == live) continue;
    if (pos + words[i] > window) return true;
    pos += words[i];
    ++i;
  }
  return false;
}

// Compares each tier's Fill of n draws against the scalar tier's, values
// and the next draw, on an engine `skip` words past `seed`'s start.
void ExpectGammaFillMatchesScalar(double shape, uint64_t seed, size_t skip,
                                  size_t n) {
  const numeric::GammaBatchSampler sampler(shape, 50e3);
  std::vector<double> reference(n);
  double reference_next = 0.0;
  {
    ScopedTier forced(SimdTier::kScalar);
    numeric::Rng rng(seed);
    rng.engine().AdvanceRaw(skip);
    sampler.Fill(&rng, reference.data(), n);
    reference_next = rng.Uniform01();
  }
  for (SimdTier tier : AllTiers()) {
    ScopedTier forced(tier);
    numeric::Rng rng(seed);
    rng.engine().AdvanceRaw(skip);
    std::vector<double> got(n);
    sampler.Fill(&rng, got.data(), n);
    EXPECT_EQ(got, reference) << numeric::SimdTierName(tier)
                              << " shape=" << shape << " seed=" << seed
                              << " skip=" << skip << " n=" << n;
    EXPECT_EQ(rng.Uniform01(), reference_next)
        << numeric::SimdTierName(tier) << " shape=" << shape
        << " seed=" << seed << " skip=" << skip << " n=" << n;
  }
}

// The wide walk's window at its edges: windows that straddle the
// engine's 312-word block boundary, fills back to back on one Rng, and
// batches whose first window ends inside a deviating lane's redraw.
TEST(SimdKernelTest, GammaFillWindowEdgesBitIdenticalAcrossTiers) {
  std::vector<size_t> skips = {0, 155};
  for (size_t k = 280; k <= 311; ++k) skips.push_back(k);
  for (const double shape : {1.0, 4.0, 4.43}) {
    for (const size_t skip : skips) {
      for (const size_t n : {8, 26, 30, 60, 160}) {
        ExpectGammaFillMatchesScalar(shape, 77 + n, skip, n);
      }
    }
  }

  // Back to back: each fill's window starts where the last one's walk
  // stopped.
  const std::vector<size_t> run = {26, 8, 60, 9, 13, 200, 30, 1, 512, 26};
  for (const double shape : {1.0, 4.0}) {
    const numeric::GammaBatchSampler sampler(shape, 50e3);
    std::vector<std::vector<double>> reference;
    double reference_next = 0.0;
    {
      ScopedTier forced(SimdTier::kScalar);
      numeric::Rng rng(4040);
      for (const size_t n : run) {
        reference.emplace_back(n);
        sampler.Fill(&rng, reference.back().data(), n);
      }
      reference_next = rng.Uniform01();
    }
    for (SimdTier tier : AllTiers()) {
      ScopedTier forced(tier);
      numeric::Rng rng(4040);
      for (size_t r = 0; r < run.size(); ++r) {
        std::vector<double> got(run[r]);
        sampler.Fill(&rng, got.data(), got.size());
        EXPECT_EQ(got, reference[r]) << numeric::SimdTierName(tier)
                                     << " shape=" << shape << " fill=" << r;
      }
      EXPECT_EQ(rng.Uniform01(), reference_next)
          << numeric::SimdTierName(tier) << " shape=" << shape;
    }
  }

  // A redraw past the first window's end, for 8- and 4-lane blocks.
  for (const size_t lanes : {8, 4}) {
    size_t found = 0;
    std::vector<size_t> words;
    for (uint64_t seed = 1; seed < 3000 && found < 4; ++seed) {
      ScalarDraws(seed, 1.0, 160, &words);
      if (!RedrawCrossesFirstWindow(words, lanes)) continue;
      ++found;
      ExpectGammaFillMatchesScalar(1.0, seed, 0, 160);
    }
    EXPECT_EQ(found, 4u) << lanes << " lanes";
  }
}

// The wide tiers accept a lane on first try when either squeeze does;
// the second, shape-aware squeeze must never accept a pair the scalar
// routine rejects (numeric/gamma_internal.h), or the tiers' draws and
// engine consumption would diverge. The grid straddles the exact test's
// boundary u = exp(d phi(c x)) for x across the ziggurat's fast range,
// densely near x = 0 where the squeeze bound and the boundary meet and
// only the rounding margin separates them.
TEST(SimdKernelTest, GammaSqueezeNeverAcceptsWhatTheExactTestRejects) {
  const double edge = numeric::internal::NormalZiggurat().x[1];
  std::vector<double> xs;
  for (int k = -2000; k <= 2000; ++k) xs.push_back(edge * k / 2000.5);
  for (int k = 0; k <= 48; ++k) {
    const double tiny = std::pow(10.0, -k / 4.0);
    xs.push_back(tiny);
    xs.push_back(-tiny);
  }
  for (const double shape : {1.0, 1.5, 4.0, 4.43, 50.0, 1e4}) {
    // GammaBatchSampler's constants.
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    std::vector<double> x;
    std::vector<double> u;
    for (const double xv : xs) {
      double v = 1.0 + c * xv;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double boundary =
          std::exp(0.5 * (xv * xv) + d * (1.0 - v + std::log(v)));
      auto add = [&](double uv) {
        if (uv >= 0.0 && uv < 1.0) {
          x.push_back(xv);
          u.push_back(uv);
        }
      };
      for (int k = -32; k <= 32; ++k) add(boundary * (1.0 + k * 0x1.0p-24));
      double below = boundary;
      double above = boundary;
      for (int k = 0; k < 16; ++k) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 1.0);
        add(below);
        add(above);
      }
      for (int k = 0; k < 64; ++k) add((k + 0.5) / 64.0);
    }
    for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
      ScopedTier forced(tier);
      if (numeric::ActiveSimdTier() != tier) continue;
      std::unique_ptr<bool[]> accept(new bool[x.size()]);
      ASSERT_TRUE(numeric::internal::GammaSqueezeWide(d, c, x.data(), u.data(),
                                                      accept.get(), x.size()));
      size_t unsound = 0;
      size_t second_squeeze_only = 0;
      for (size_t i = 0; i < x.size(); ++i) {
        // The scalar routine's acceptance, verbatim.
        double v = 1.0 + c * x[i];
        v = v * v * v;
        const double x2 = x[i] * x[i];
        const bool squeeze = u[i] < 1.0 - 0.0331 * x2 * x2;
        const bool exact =
            std::log(u[i]) < 0.5 * x2 + d * (1.0 - v + std::log(v));
        if (accept[i] && !squeeze && !exact) {
          ++unsound;
          ADD_FAILURE() << numeric::SimdTierName(tier) << " shape=" << shape
                        << " x=" << x[i] << " u=" << u[i];
          if (unsound > 5) break;
        }
        if (accept[i] && !squeeze) ++second_squeeze_only;
      }
      EXPECT_EQ(unsound, 0u);
      // The second squeeze does accept lanes the first one misses.
      EXPECT_GT(second_squeeze_only, x.size() / 50)
          << numeric::SimdTierName(tier) << " shape=" << shape;
    }
  }
}

// The tilted-uniform inverse CDF against its scalar loop, at every batch
// length around the 4- and 8-lane blocks, with the uniforms' extremes
// pinned and scales putting x = u E below Log1p's 0.41422 cut only or
// on both sides of it, up to x near 2^53.
TEST(SimdKernelTest, TiltedUniformInverseCdfBitIdenticalAcrossTiers) {
  constexpr double kCut = 0x1.a827ap-2;  // where Log1p's k = 0 range ends
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(81);
  const double theta = 22.77;
  numeric::Rng rng(4242);
  for (const double scale :
       {0.287, 0.41, kCut, 0.5, 0.83, 1.0, 3.0, 1e6, 0x1.0p53}) {
    for (const size_t n : lengths) {
      std::vector<double> u(n);
      rng.FillUniform01(u.data(), n);
      if (n > 0) u[0] = 0.0;
      if (n > 1) u[n - 1] = 0x1.fffffffffffffp-1;
      // x at (the rounding of) the cut, where the scale reaches it.
      if (n > 2 && kCut / scale < 1.0) u[n / 2] = kCut / scale;
      std::vector<double> reference(n);
      for (size_t i = 0; i < n; ++i) {
        reference[i] = numeric::Log1p(u[i] * scale) / theta;
      }
      for (SimdTier tier : AllTiers()) {
        ScopedTier forced(tier);
        std::vector<double> got(n);
        numeric::TiltedUniformInverseCdf(u.data(), scale, theta, got.data(),
                                         n);
        EXPECT_EQ(got, reference) << numeric::SimdTierName(tier)
                                  << " scale=" << scale << " n=" << n;
      }
    }
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

// Tilted samplers at the auto tilt (validate_mc's N = 30 among them: not
// a multiple of 8, so its Gamma batches end in partial blocks), with
// tilted disturbances, and with antithetic pairs and strata; plus the
// untilted theta = 0 sampler at both sizes. Each sample's discrete
// outcome, service time and log weight must match the scalar tier's bit
// for bit.
TEST(SimdKernelTest, ImportanceSamplerSamplePathTierIndependent) {
  struct Case {
    const char* name;
    int streams;
    bool auto_tilt;
    bool disturbances;
    bool antithetic_strata;
  };
  for (const Case& c : {Case{"untilted", 24, false, false, false},
                        Case{"untilted", 30, false, false, false},
                        Case{"auto tilt", 24, true, false, false},
                        Case{"auto tilt", 30, true, false, false},
                        Case{"tilted disturbances", 30, true, true, false},
                        Case{"antithetic strata", 24, true, false, true}}) {
    SimulatorConfig config;
    config.round_length_s = 1.0;
    if (c.disturbances) {
      config.disturbance.probability = 0.05;
      config.disturbance.delay_min_s = 0.002;
      config.disturbance.delay_max_s = 0.03;
    }
    ImportanceSamplingOptions options;
    if (c.auto_tilt) {
      auto theta = AutoTiltParameter(disk::QuantumViking2100(),
                                     disk::QuantumViking2100Seek(), c.streams,
                                     *Table1Sizes(), config.round_length_s);
      ASSERT_TRUE(theta.ok());
      ASSERT_GT(*theta, 0.0);
      options.theta = *theta;
    }
    if (c.antithetic_strata) {
      options.antithetic = true;
      options.strata = 4;
    }
    auto run = [&](SimdTier tier) {
      ScopedTier forced(tier);
      auto sampler = ImportanceSampler::Create(
          disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
          c.streams, Table1Sizes(), config, options);
      ZS_CHECK(sampler.ok());
      sampler->ResetForReplication(55);
      std::vector<double> values;
      for (int i = 0; i < 200; ++i) {
        const TiltedRoundOutcome outcome = sampler->RunRound();
        values.push_back(outcome.total_service_time_s);
        values.push_back(outcome.log_weight);
        values.push_back(outcome.overran ? 1.0 : 0.0);
        values.push_back(outcome.glitched_streams);
      }
      return values;
    };
    const std::vector<double> reference = run(SimdTier::kScalar);
    for (SimdTier tier : AllTiers()) {
      EXPECT_EQ(run(tier), reference) << numeric::SimdTierName(tier) << " "
                                      << c.name << " N=" << c.streams;
    }
  }
}

}  // namespace
}  // namespace zonestream::sim
