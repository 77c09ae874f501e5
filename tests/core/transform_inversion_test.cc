#include "core/transform_inversion.h"

#include <cmath>
#include <complex>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "core/saddlepoint.h"
#include "disk/presets.h"
#include "numeric/special_functions.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::core {
namespace {

TEST(GilPelaezTest, ExactForGammaDistribution) {
  // Gamma(shape=4, rate=2): cf(u) = (1 - iu/2)^{-4}, tail = Q(4, 2t).
  const auto cf = [](double u) {
    return std::exp(-4.0 * std::log(std::complex<double>(1.0, -u / 2.0)));
  };
  for (double t : {0.5, 1.0, 2.0, 4.0, 7.0}) {
    const double inverted = GilPelaezTailProbability(cf, t);
    const double exact = numeric::RegularizedGammaQ(4.0, 2.0 * t);
    EXPECT_NEAR(inverted, exact, 1e-7) << t;
  }
}

TEST(GilPelaezTest, ExactForExponential) {
  // Exp(1): tail e^{-t}.
  const auto cf = [](double u) {
    return 1.0 / std::complex<double>(1.0, -u);
  };
  for (double t : {0.1, 1.0, 3.0, 8.0}) {
    EXPECT_NEAR(GilPelaezTailProbability(cf, t), std::exp(-t), 1e-6) << t;
  }
}

TEST(GilPelaezTest, ExactForShiftedSum) {
  // Constant 1.0 plus Exp(1): tail at t is e^{-(t-1)} for t > 1.
  const auto cf = [](double u) {
    const std::complex<double> i_unit(0.0, 1.0);
    return std::exp(i_unit * u) / std::complex<double>(1.0, -u);
  };
  for (double t : {1.5, 2.0, 4.0}) {
    EXPECT_NEAR(GilPelaezTailProbability(cf, t), std::exp(-(t - 1.0)), 1e-6)
        << t;
  }
}

ServiceTimeModel Table1Model() {
  auto model = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

TEST(ExactLateProbabilityTest, Validation) {
  const ServiceTimeModel model = Table1Model();
  EXPECT_FALSE(ExactLateProbability(model, 0, 1.0).ok());
  EXPECT_FALSE(ExactLateProbability(model, 10, 0.0).ok());
  EXPECT_FALSE(
      ExactLateProbability(model, 10, std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_FALSE(
      ExactLateProbability(model, 10, std::numeric_limits<double>::infinity())
          .ok());
  EXPECT_TRUE(ExactLateProbability(model, 10, 1.0).ok());
}

TEST(ExactLateProbabilityTest, BelowChernoffAboveZero) {
  const ServiceTimeModel model = Table1Model();
  for (int n : {24, 26, 28, 30}) {
    const auto exact = ExactLateProbability(model, n, 1.0);
    ASSERT_TRUE(exact.ok());
    EXPECT_GT(*exact, 0.0) << n;
    EXPECT_LT(*exact, model.LateBound(n, 1.0).bound) << n;
  }
}

TEST(ExactLateProbabilityTest, AgreesWithSaddlepointWithinPercents) {
  // Two independent methods on the same transform must agree closely;
  // this cross-validates both.
  const ServiceTimeModel model = Table1Model();
  for (int n : {26, 28, 30}) {
    const auto exact = ExactLateProbability(model, n, 1.0);
    ASSERT_TRUE(exact.ok());
    const double saddle = SaddlepointLateProbability(model, n, 1.0).probability;
    EXPECT_NEAR(saddle, *exact, 0.10 * *exact) << n;
  }
}

TEST(ExactLateProbabilityTest, DominatesSimulation) {
  // The transform's only conservatism is the Oyang seek bound, so the
  // exact inversion must still dominate the simulated p_late (which pays
  // real, smaller seeks) while being far closer than Chernoff.
  const ServiceTimeModel model = Table1Model();
  const int n = 28;
  auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
  sim::SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 44;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      sim::RoundSimulator::IidFactory(sizes), config);
  ASSERT_TRUE(simulator.ok());
  const sim::ProbabilityEstimate simulated =
      simulator->EstimateLateProbability(40000);
  const auto exact = ExactLateProbability(model, n, 1.0);
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(*exact, simulated.ci_lower);
  const double chernoff = model.LateBound(n, 1.0).bound;
  EXPECT_LT(std::fabs(std::log(*exact / simulated.point)),
            std::fabs(std::log(chernoff / simulated.point)));
}

TEST(ExactLateProbabilityTest, MonotoneInN) {
  const ServiceTimeModel model = Table1Model();
  double prev = 0.0;
  for (int n = 20; n <= 32; n += 3) {
    const auto p = ExactLateProbability(model, n, 1.0);
    ASSERT_TRUE(p.ok());
    EXPECT_GE(*p, prev) << n;
    prev = *p;
  }
  // Consecutive n above the noise floor (p(26) = 3.6e-4): the step-3 pass
  // above never compares neighbors, and below the floor neighbors do
  // decrease (3.5e-7 at n = 21, 7.8e-9 at n = 22).
  prev = 0.0;
  for (int n = 26; n <= 32; ++n) {
    const auto p = ExactLateProbability(model, n, 1.0);
    ASSERT_TRUE(p.ok());
    EXPECT_GE(*p, prev) << n;
    prev = *p;
  }
}

TEST(ExactMaxStreamsTest, BetweenChernoffAndSimulatedCapacity) {
  const ServiceTimeModel model = Table1Model();
  const auto exact_nmax = ExactMaxStreams(model, 1.0, 0.01);
  ASSERT_TRUE(exact_nmax.ok());
  // Chernoff admits 26 (the paper); the simulation sustains 28; the
  // model-exact tail sits between (the residual gap is the seek bound).
  EXPECT_GE(*exact_nmax, 26);
  EXPECT_LE(*exact_nmax, 29);
}

TEST(ExactMaxStreamsTest, InvalidQueriesReturnZeroWithoutInverting) {
  // The shared search validates (t, delta) before any inversion: t = 0
  // and NaN used to abort, and delta = 1 scanned to n_cap (4096 after
  // tens of seconds of inversions).
  const ServiceTimeModel model = Table1Model();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {0.0, -1.0, nan, inf}) {
    const auto n_max = ExactMaxStreams(model, t, 0.01);
    ASSERT_TRUE(n_max.ok()) << t;
    EXPECT_EQ(*n_max, 0) << t;
  }
  for (double delta : {0.0, -0.5, nan, 1.0, 2.0}) {
    const auto n_max = ExactMaxStreams(model, 1.0, delta);
    ASSERT_TRUE(n_max.ok()) << delta;
    EXPECT_EQ(*n_max, 0) << delta;
  }
}

TEST(ExactMaxStreamsTest, RefusesTolerancesBelowTheNoiseFloor) {
  // Below the floor the inversion noise would end the search early: on
  // this model it would return 11, 7 and 3 at 2e-7, 1e-7 and 1e-8.
  const ServiceTimeModel model = Table1Model();
  for (double delta : {std::nextafter(kExactMaxStreamsMinTolerance, 0.0),
                       1e-5, 2e-7, 1e-7, 1e-8}) {
    const auto n_max = ExactMaxStreams(model, 1.0, delta);
    ASSERT_FALSE(n_max.ok()) << delta;
    EXPECT_EQ(n_max.status().code(), common::StatusCode::kOutOfRange);
  }
  EXPECT_TRUE(ExactMaxStreams(model, 1.0, kExactMaxStreamsMinTolerance).ok());
}

TEST(ExactMaxStreamsTest, EqualsSaddlepointAtTheFloorOnEveryPreset) {
  const struct {
    disk::DiskGeometry geometry;
    disk::SeekTimeModel seek;
  } presets[] = {
      {disk::QuantumViking2100(), disk::QuantumViking2100Seek()},
      {disk::SingleZoneViking(), disk::QuantumViking2100Seek()},
      {disk::SyntheticSmallDisk(), disk::SyntheticSmallDiskSeek()},
      {disk::SyntheticFastDisk(), disk::SyntheticFastDiskSeek()},
  };
  for (const auto& preset : presets) {
    auto model = ServiceTimeModel::ForMultiZoneDisk(preset.geometry,
                                                    preset.seek, 200e3, 1e10);
    ASSERT_TRUE(model.ok());
    const auto exact =
        ExactMaxStreams(*model, 1.0, kExactMaxStreamsMinTolerance);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(*exact, SaddlepointMaxStreams(*model, 1.0,
                                            kExactMaxStreamsMinTolerance))
        << preset.geometry.cylinders();
  }
}

}  // namespace
}  // namespace zonestream::core
