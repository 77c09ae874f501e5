#include "workload/size_distribution.h"

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/quadrature.h"
#include "numeric/random.h"
#include "numeric/statistics.h"

namespace zonestream::workload {
namespace {

constexpr double kMean = 200e3;
constexpr double kVariance = 100e3 * 100e3;

// ---------------------------------------------------------------------------
// Family-generic property tests

// One family under test. gtest prints each parameter into the listed test
// name, and its default printer for a shared_ptr prints the heap address,
// which changes on every run; PrintTo prints the family's name instead, so
// every case is registered under the same name on every build.
struct Family {
  std::shared_ptr<const SizeDistribution> dist;
};

void PrintTo(const Family& family, std::ostream* os) {
  *os << family.dist->name();
}

std::vector<Family> AllFamilies() {
  std::vector<Family> families;
  families.push_back({std::make_shared<GammaSizeDistribution>(
      *GammaSizeDistribution::Create(kMean, kVariance))});
  families.push_back({std::make_shared<LognormalSizeDistribution>(
      *LognormalSizeDistribution::Create(kMean, kVariance))});
  families.push_back({std::make_shared<TruncatedParetoSizeDistribution>(
      *TruncatedParetoSizeDistribution::Create(100e3, 2.5, 2000e3))});
  return families;
}

class SizeDistributionPropertyTest : public ::testing::TestWithParam<Family> {};

TEST_P(SizeDistributionPropertyTest, DensityIntegratesToOne) {
  const SizeDistribution& dist = *GetParam().dist;
  const double lo = dist.Quantile(0.0);
  const double hi = dist.Quantile(1.0 - 1e-10);
  const double integral = numeric::CompositeGaussLegendre(
      [&dist](double x) { return dist.Density(x); }, lo, hi, 128);
  EXPECT_NEAR(integral, 1.0, 1e-6) << dist.name();
}

TEST_P(SizeDistributionPropertyTest, DensityMatchesCdfDerivative) {
  const SizeDistribution& dist = *GetParam().dist;
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = dist.Quantile(p);
    const double h = x * 1e-6;
    const double numeric_density =
        (dist.Cdf(x + h) - dist.Cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(dist.Density(x), numeric_density,
                1e-3 * (dist.Density(x) + 1e-12))
        << dist.name() << " p=" << p;
  }
}

TEST_P(SizeDistributionPropertyTest, QuantileInvertsCdf) {
  const SizeDistribution& dist = *GetParam().dist;
  for (double p : {0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999}) {
    EXPECT_NEAR(dist.Cdf(dist.Quantile(p)), p, 1e-8)
        << dist.name() << " p=" << p;
  }
}

TEST_P(SizeDistributionPropertyTest, SampleMomentsMatch) {
  const SizeDistribution& dist = *GetParam().dist;
  numeric::Rng rng(4242);
  numeric::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(dist.Sample(&rng));
  EXPECT_NEAR(stats.mean(), dist.mean(), 0.01 * dist.mean()) << dist.name();
  EXPECT_NEAR(stats.variance(), dist.variance(), 0.06 * dist.variance())
      << dist.name();
}

TEST_P(SizeDistributionPropertyTest, CdfBoundaries) {
  const SizeDistribution& dist = *GetParam().dist;
  EXPECT_DOUBLE_EQ(dist.Cdf(0.0), 0.0) << dist.name();
  EXPECT_DOUBLE_EQ(dist.Cdf(-10.0), 0.0) << dist.name();
  EXPECT_NEAR(dist.Cdf(dist.mean() * 1000.0), 1.0, 1e-9) << dist.name();
}

INSTANTIATE_TEST_SUITE_P(
    Families, SizeDistributionPropertyTest, ::testing::ValuesIn(AllFamilies()),
    [](const ::testing::TestParamInfo<Family>& param_info) {
      std::string name = param_info.param.dist->name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Gamma specifics

TEST(GammaSizeDistributionTest, RejectsBadMoments) {
  EXPECT_FALSE(GammaSizeDistribution::Create(0.0, 1.0).ok());
  EXPECT_FALSE(GammaSizeDistribution::Create(1.0, 0.0).ok());
  EXPECT_FALSE(GammaSizeDistribution::Create(-1.0, 1.0).ok());
}

TEST(GammaSizeDistributionTest, Table1Parameterization) {
  const auto dist = GammaSizeDistribution::Create(kMean, kVariance);
  ASSERT_TRUE(dist.ok());
  // mean 200 KB, sd 100 KB => shape 4, scale 50 KB, rate = mean/var.
  EXPECT_DOUBLE_EQ(dist->shape(), 4.0);
  EXPECT_DOUBLE_EQ(dist->scale(), 50e3);
  EXPECT_DOUBLE_EQ(dist->rate(), kMean / kVariance);
  EXPECT_DOUBLE_EQ(dist->mean(), kMean);
  EXPECT_DOUBLE_EQ(dist->variance(), kVariance);
}

TEST(GammaSizeDistributionTest, ClosedFormMgfMatchesQuadrature) {
  const auto dist = GammaSizeDistribution::Create(kMean, kVariance);
  ASSERT_TRUE(dist.ok());
  ASSERT_TRUE(dist->has_finite_mgf());
  const double theta_max = dist->MgfThetaMax();
  EXPECT_DOUBLE_EQ(theta_max, 1.0 / 50e3);
  for (double frac : {0.1, 0.5, 0.8}) {
    const double theta = frac * theta_max;
    const double closed = dist->Mgf(theta);
    const double numeric = dist->SizeDistribution::Mgf(theta);
    EXPECT_NEAR(numeric, closed, 1e-6 * closed) << frac;
  }
}

TEST(GammaSizeDistributionTest, MgfAtZeroIsOne) {
  const auto dist = GammaSizeDistribution::Create(kMean, kVariance);
  EXPECT_DOUBLE_EQ(dist->Mgf(0.0), 1.0);
}

// ---------------------------------------------------------------------------
// Lognormal specifics

TEST(LognormalSizeDistributionTest, RejectsBadMoments) {
  EXPECT_FALSE(LognormalSizeDistribution::Create(0.0, 1.0).ok());
  EXPECT_FALSE(LognormalSizeDistribution::Create(1.0, -1.0).ok());
}

TEST(LognormalSizeDistributionTest, MomentInversion) {
  const auto dist = LognormalSizeDistribution::Create(kMean, kVariance);
  ASSERT_TRUE(dist.ok());
  // Round-trip: exp(mu + sigma^2/2) == mean.
  EXPECT_NEAR(std::exp(dist->mu() + 0.5 * dist->sigma() * dist->sigma()),
              kMean, 1e-6 * kMean);
  EXPECT_FALSE(dist->has_finite_mgf());
}

TEST(LognormalSizeDistributionTest, MedianIsExpMu) {
  const auto dist = LognormalSizeDistribution::Create(kMean, kVariance);
  EXPECT_NEAR(dist->Quantile(0.5), std::exp(dist->mu()), 1e-6 * kMean);
}

// ---------------------------------------------------------------------------
// Truncated Pareto specifics

TEST(TruncatedParetoTest, RejectsBadParameters) {
  EXPECT_FALSE(TruncatedParetoSizeDistribution::Create(0.0, 2.0, 10.0).ok());
  EXPECT_FALSE(TruncatedParetoSizeDistribution::Create(1.0, 0.0, 10.0).ok());
  EXPECT_FALSE(TruncatedParetoSizeDistribution::Create(5.0, 2.0, 5.0).ok());
}

TEST(TruncatedParetoTest, SupportIsRespected) {
  const auto dist =
      TruncatedParetoSizeDistribution::Create(100e3, 2.5, 2000e3);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(dist->Density(99e3), 0.0);
  EXPECT_DOUBLE_EQ(dist->Density(2001e3), 0.0);
  EXPECT_GT(dist->Density(150e3), 0.0);
  EXPECT_DOUBLE_EQ(dist->Cdf(100e3), 0.0);
  EXPECT_DOUBLE_EQ(dist->Cdf(2000e3), 1.0);
  EXPECT_TRUE(dist->has_finite_mgf());
  EXPECT_TRUE(std::isinf(dist->MgfThetaMax()));
}

TEST(TruncatedParetoTest, MomentsMatchQuadrature) {
  const auto dist =
      TruncatedParetoSizeDistribution::Create(100e3, 2.5, 2000e3);
  ASSERT_TRUE(dist.ok());
  const double mean = numeric::CompositeGaussLegendre(
      [&](double x) { return x * dist->Density(x); }, 100e3, 2000e3, 64);
  const double m2 = numeric::CompositeGaussLegendre(
      [&](double x) { return x * x * dist->Density(x); }, 100e3, 2000e3, 64);
  EXPECT_NEAR(dist->mean(), mean, 1e-6 * mean);
  EXPECT_NEAR(dist->variance(), m2 - mean * mean,
              1e-6 * (m2 - mean * mean));
}

TEST(TruncatedParetoTest, AlphaEqualToMomentOrderUsesLogBranch) {
  // k == alpha exercises the logarithmic special case of RawMoment.
  const auto dist = TruncatedParetoSizeDistribution::Create(1.0, 1.0, 100.0);
  ASSERT_TRUE(dist.ok());
  // E[X] = x_min^alpha * alpha/(1-(xm/c)^a) * ln(c/xm) with alpha = 1.
  const double expected = 1.0 / (1.0 - 0.01) * std::log(100.0);
  EXPECT_NEAR(dist->mean(), expected, 1e-9);
}

TEST(TruncatedParetoTest, CreateByMomentsHitsBothMoments) {
  const auto dist = TruncatedParetoSizeDistribution::CreateByMoments(
      kMean, kVariance, /*alpha=*/2.2);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_NEAR(dist->mean(), kMean, 1e-6 * kMean);
  EXPECT_NEAR(dist->variance(), kVariance, 1e-4 * kVariance);
}

TEST(TruncatedParetoTest, CreateByMomentsAcrossTailIndices) {
  // alpha = 4 is excluded: its untruncated squared CV tops out at 2/9,
  // below the requested 1/4, so no cap can reach the target variance.
  for (double alpha : {1.2, 1.8, 2.5, 3.0}) {
    const auto dist = TruncatedParetoSizeDistribution::CreateByMoments(
        kMean, kVariance, alpha);
    ASSERT_TRUE(dist.ok()) << "alpha=" << alpha;
    EXPECT_NEAR(dist->mean(), kMean, 1e-5 * kMean) << alpha;
    EXPECT_NEAR(dist->variance(), kVariance, 1e-3 * kVariance) << alpha;
  }
}

TEST(TruncatedParetoTest, CreateByMomentsRejectsUnreachableVariance) {
  // A tight cap limit makes the requested (huge) variance unreachable.
  const auto dist = TruncatedParetoSizeDistribution::CreateByMoments(
      kMean, 100.0 * kVariance, /*alpha=*/3.0, /*max_cap_over_mean=*/1.5);
  EXPECT_FALSE(dist.ok());
  // Even an unlimited cap cannot reach 100x variance at alpha = 3 (the
  // untruncated variance tops out at 0.75 * mean^2).
  const auto unlimited = TruncatedParetoSizeDistribution::CreateByMoments(
      kMean, 100.0 * kVariance, /*alpha=*/3.0, /*max_cap_over_mean=*/1e6);
  EXPECT_FALSE(unlimited.ok());
}

// ---------------------------------------------------------------------------
// Numeric default MGF on the truncated Pareto

TEST(TruncatedParetoTest, NumericMgfSaneAtSmallTheta) {
  const auto dist =
      TruncatedParetoSizeDistribution::Create(100e3, 2.5, 2000e3);
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(dist->Mgf(0.0), 1.0, 1e-9);
  // Second-order expansion: M(theta) = 1 + theta E[X] + theta^2 E[X^2]/2.
  const double theta = 1e-9;
  const double m2 = dist->variance() + dist->mean() * dist->mean();
  EXPECT_NEAR(dist->Mgf(theta),
              1.0 + theta * dist->mean() + 0.5 * theta * theta * m2,
              1e-3 * theta * dist->mean());
  // Convexity: M(theta) grows faster than linear.
  const double big_theta = 1e-6;
  EXPECT_GT(dist->Mgf(big_theta), 1.0 + big_theta * dist->mean());
}

}  // namespace
}  // namespace zonestream::workload
