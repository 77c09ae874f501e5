#include "numeric/quadrature.h"

#include <cmath>

#include <gtest/gtest.h>

namespace zonestream::numeric {
namespace {

class GaussLegendreOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(GaussLegendreOrderTest, ExactForMatchingPolynomialDegree) {
  const int order = GetParam();
  // Exact for degree 2*order - 1; test with degree 2*order - 1 monomial.
  const int degree = 2 * order - 1;
  const auto f = [degree](double x) { return std::pow(x, degree); };
  // ∫_0^1 x^d dx = 1/(d+1).
  EXPECT_NEAR(GaussLegendre(f, 0.0, 1.0, order), 1.0 / (degree + 1), 1e-12);
}

TEST_P(GaussLegendreOrderTest, RuleIsSymmetricWithWeightsSummingToTwo) {
  const int order = GetParam();
  const GaussLegendreNodes& rule = GaussLegendreRule(order);
  EXPECT_EQ(&rule, &GaussLegendreRule(order));
  ASSERT_EQ(rule.nodes.size(), static_cast<size_t>(order));
  ASSERT_EQ(rule.weights.size(), static_cast<size_t>(order));
  double weight_sum = 0.0;
  for (int i = 0; i < order; ++i) {
    if (i > 0) {
      EXPECT_LT(rule.nodes[i - 1], rule.nodes[i]);
    }
    EXPECT_EQ(rule.nodes[i], -rule.nodes[order - 1 - i]);
    EXPECT_GT(rule.weights[i], 0.0);
    weight_sum += rule.weights[i];
  }
  EXPECT_NEAR(weight_sum, 2.0, 1e-14);
}

TEST_P(GaussLegendreOrderTest, SineIntegral) {
  const int order = GetParam();
  EXPECT_NEAR(GaussLegendre([](double x) { return std::sin(x); }, 0.0, M_PI,
                            order),
              2.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussLegendreOrderTest,
                         ::testing::Values(8, 16, 32));

TEST(CompositeGaussLegendreTest, MatchesAnalyticGammaDensityIntegral) {
  // ∫_0^∞ gamma-density = 1; truncate far into the tail.
  const double shape = 4.0;
  const double scale = 50.0;
  const auto density = [shape, scale](double x) {
    return std::exp((shape - 1.0) * std::log(x) - x / scale -
                    shape * std::log(scale) - std::lgamma(shape));
  };
  const double integral =
      CompositeGaussLegendre(density, 1e-9, 4000.0, /*segments=*/64);
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(CompositeGaussLegendreTest, MatchesClosedFormDampedCosine) {
  // ∫_0^8 e^{-x} cos 3x dx = (1 + e^{-8}(3 sin 24 - cos 24)) / 10.
  const auto f = [](double x) { return std::exp(-x) * std::cos(3.0 * x); };
  const double exact =
      (1.0 + std::exp(-8.0) * (3.0 * std::sin(24.0) - std::cos(24.0))) / 10.0;
  EXPECT_NEAR(CompositeGaussLegendre(f, 0.0, 8.0, 16), exact, 1e-13);
}

}  // namespace
}  // namespace zonestream::numeric
