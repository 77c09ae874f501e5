#include "core/exact_tail.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/saddlepoint.h"
#include "core/transfer_models.h"
#include "disk/presets.h"
#include "numeric/quadrature.h"
#include "numeric/random.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::core {
namespace {

TEST(IrwinHallPiecesTest, ClosedFormsForOneTwoAndThreeSummands) {
  std::vector<double> density(3);
  for (double s : {0.0, 0.125, 0.3, 0.5, 0.77, 0.999}) {
    IrwinHallPieces(1, s, density.data());
    EXPECT_EQ(density[0], 1.0) << s;

    IrwinHallPieces(2, s, density.data());
    EXPECT_NEAR(density[0], s, 1e-15) << s;
    EXPECT_NEAR(density[1], 1.0 - s, 1e-15) << s;

    IrwinHallPieces(3, s, density.data());
    EXPECT_NEAR(density[0], s * s / 2.0, 1e-15) << s;
    EXPECT_NEAR(density[1], (1.0 + 2.0 * s - 2.0 * s * s) / 2.0, 1e-15) << s;
    EXPECT_NEAR(density[2], (1.0 - s) * (1.0 - s) / 2.0, 1e-15) << s;
  }
}

TEST(IrwinHallPiecesTest, UnitMassUnderTheEnginesRule) {
  // The engine's 16-point rule on every unit piece integrates the density
  // to one, far past the n = 16 where the rule stops being exact for it.
  const numeric::GaussLegendreNodes& rule = numeric::GaussLegendreRule(16);
  std::vector<double> density(300);
  for (int n = 1; n <= 300; ++n) {
    double mass = 0.0;
    for (size_t i = 0; i < rule.nodes.size(); ++i) {
      IrwinHallPieces(n, 0.5 + 0.5 * rule.nodes[i], density.data());
      for (int j = 0; j < n; ++j) mass += 0.5 * rule.weights[i] * density[j];
    }
    EXPECT_NEAR(mass, 1.0, 1e-13) << n;
  }
}

TEST(IrwinHallPiecesTest, SymmetricAboutHalfTheSummands) {
  // M_n(j + s) = M_n(n − j − s), which is piece n − 1 − j at 1 − s.
  std::vector<double> density(60);
  std::vector<double> mirrored(60);
  for (int n = 1; n <= 60; ++n) {
    for (double s : {0.0625, 0.25, 0.5, 0.8}) {
      IrwinHallPieces(n, s, density.data());
      IrwinHallPieces(n, 1.0 - s, mirrored.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_NEAR(density[j], mirrored[n - 1 - j], 1e-13 * density[j])
            << "n=" << n << " s=" << s << " j=" << j;
      }
    }
  }
}

TEST(IrwinHallPiecesTest, OnePieceEqualsTheFullPassEntryForEntry) {
  // The kink piece's restricted pass must reproduce the full pass bit for
  // bit at every piece, including pieces 0 and n − 1 and nodes at both
  // ends of [0, 1).
  const double below_one = 0x1.fffffffffffffp-1;
  std::vector<double> full(300);
  std::vector<double> scratch(300);
  for (int n : {1, 2, 3, 5, 8, 13, 26, 31, 32, 33, 64, 100, 299, 300}) {
    for (double s : {0.0, 0.0198550717512319, 0.3, 0.5, 0.9, below_one}) {
      IrwinHallPieces(n, s, full.data());
      for (int piece = 0; piece < n; ++piece) {
        ASSERT_EQ(IrwinHallPiece(n, s, piece, scratch.data()), full[piece])
            << "n=" << n << " s=" << s << " piece=" << piece;
      }
    }
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
  // A round whose seek bound alone reaches t is always late.
  EXPECT_EQ(*ExactLateProbability(model, 10, model.SeekBound(10)), 1.0);
}

TEST(ExactLateProbabilityTest, NeedsAGammaTransferModel) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
  auto mixture = ZoneMixtureTransferModel::Create(viking, sizes);
  ASSERT_TRUE(mixture.ok());
  auto model = ServiceTimeModel::WithTransferModel(
      disk::QuantumViking2100Seek(), viking.cylinders(),
      viking.rotation_time(),
      std::make_shared<ZoneMixtureTransferModel>(*std::move(mixture)));
  ASSERT_TRUE(model.ok());
  const auto p = ExactLateProbability(*model, 26, 1.0);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), common::StatusCode::kFailedPrecondition);
  const auto n_max = ExactMaxStreams(*model, 1.0, 0.01);
  ASSERT_FALSE(n_max.ok());
  EXPECT_EQ(n_max.status().code(), common::StatusCode::kFailedPrecondition);
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
  // Two independent methods on the same model must agree closely;
  // this cross-validates both.
  const ServiceTimeModel model = Table1Model();
  for (int n : {26, 28, 30}) {
    const auto exact = ExactLateProbability(model, n, 1.0);
    ASSERT_TRUE(exact.ok());
    const double saddle = SaddlepointLateProbability(model, n, 1.0).probability;
    EXPECT_NEAR(saddle, *exact, 0.10 * *exact) << n;
  }
}

TEST(ExactLateProbabilityTest, AgreesWithDirectMonteCarloOfTheModel) {
  // 1e7 seeded draws of SEEK(n) + ROT·ΣU + Gamma(n·β, 1/α) at n = 26, 28
  // and 30. The three sums share draws: each adds two latencies and a
  // Gamma(2β) increment to the one before, so each has its model's law.
  const ServiceTimeModel model = Table1Model();
  const auto& gamma =
      dynamic_cast<const GammaTransferModel&>(model.transfer_model());
  constexpr double kT = 1.0;
  constexpr int kDraws = 10'000'000;
  constexpr int kBatch = 10'000;
  constexpr int kLevels[] = {26, 28, 30};
  const double scale = 1.0 / gamma.alpha();
  const numeric::GammaBatchSampler first(kLevels[0] * gamma.beta(), scale);
  const numeric::GammaBatchSampler increment(2 * gamma.beta(), scale);
  numeric::Rng rng(2826);
  std::vector<double> uniforms(static_cast<size_t>(kBatch) * kLevels[2]);
  std::vector<double> transfers[3] = {std::vector<double>(kBatch),
                                      std::vector<double>(kBatch),
                                      std::vector<double>(kBatch)};
  double seek_bounds[3];
  for (int level = 0; level < 3; ++level) {
    seek_bounds[level] = model.SeekBound(kLevels[level]);
  }
  int64_t late[3] = {0, 0, 0};
  for (int drawn = 0; drawn < kDraws; drawn += kBatch) {
    rng.FillUniform01(uniforms.data(), uniforms.size());
    first.Fill(&rng, transfers[0].data(), kBatch);
    increment.Fill(&rng, transfers[1].data(), kBatch);
    increment.Fill(&rng, transfers[2].data(), kBatch);
    for (int d = 0; d < kBatch; ++d) {
      const double* u = &uniforms[static_cast<size_t>(d) * kLevels[2]];
      double latencies = 0.0;
      double transfer = 0.0;
      int summed = 0;
      for (int level = 0; level < 3; ++level) {
        for (; summed < kLevels[level]; ++summed) latencies += u[summed];
        transfer += transfers[level][d];
        const double service = seek_bounds[level] +
                               model.rotation_time() * latencies + transfer;
        if (service >= kT) ++late[level];
      }
    }
  }
  for (int level = 0; level < 3; ++level) {
    const auto exact = ExactLateProbability(model, kLevels[level], kT);
    ASSERT_TRUE(exact.ok());
    const double estimate = static_cast<double>(late[level]) / kDraws;
    const double standard_error = std::sqrt(*exact * (1.0 - *exact) / kDraws);
    EXPECT_NEAR(estimate, *exact, 3.0 * standard_error)
        << "n=" << kLevels[level];
  }
}

TEST(ExactLateProbabilityTest, DominatesSimulation) {
  // The model's only conservatism is the Oyang seek bound, so the exact
  // tail must still dominate the simulated p_late (which pays real,
  // smaller seeks) while being far closer than Chernoff.
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
  // Every consecutive pair from n = 1, through the deep tail (p(20) is
  // about 4e-10) to p near 1 at n = 40.
  const ServiceTimeModel model = Table1Model();
  double prev = 0.0;
  for (int n = 1; n <= 40; ++n) {
    const auto p = ExactLateProbability(model, n, 1.0);
    ASSERT_TRUE(p.ok());
    EXPECT_GE(*p, prev) << n;
    prev = *p;
  }
  EXPECT_GT(prev, 0.9);
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
  // The shared search validates (t, delta) before evaluating any tail.
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

TEST(ExactMaxStreamsTest, AnswersTinyTolerances) {
  // The saddlepoint's limits on this model; the tail at n = 22 is 1.0e-7.
  const ServiceTimeModel model = Table1Model();
  const struct {
    double delta;
    int n_max;
  } cases[] = {{2e-7, 22}, {1e-7, 21}, {1e-8, 21}};
  for (const auto& c : cases) {
    const auto n_max = ExactMaxStreams(model, 1.0, c.delta);
    ASSERT_TRUE(n_max.ok()) << c.delta;
    EXPECT_EQ(*n_max, c.n_max) << c.delta;
  }
}

TEST(ExactMaxStreamsTest, EqualsSaddlepointOnEveryPreset) {
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
    for (double delta : {1e-2, 1e-4, 1e-6, 1e-8}) {
      const auto exact = ExactMaxStreams(*model, 1.0, delta);
      ASSERT_TRUE(exact.ok());
      EXPECT_EQ(*exact, SaddlepointMaxStreams(*model, 1.0, delta))
          << preset.geometry.cylinders() << " delta=" << delta;
    }
  }
}

}  // namespace
}  // namespace zonestream::core
