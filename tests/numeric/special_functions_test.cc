#include "numeric/special_functions.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/random.h"

namespace zonestream::numeric {
namespace {

TEST(LogGammaTest, MatchesFactorials) {
  // Gamma(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-14);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-14);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-10);
}

TEST(LogGammaTest, HalfIntegerValue) {
  // Gamma(1/2) = sqrt(pi).
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-12);
}

TEST(RegularizedGammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.0, 0.0), 1.0);
}

TEST(RegularizedGammaTest, PPlusQIsOne) {
  for (double a : {0.3, 1.0, 4.0, 25.0}) {
    for (double x : {0.1, 1.0, 4.0, 30.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, ShapeOneIsExponential) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.01, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(RegularizedGammaTest, KnownValueShapeFour) {
  // P(4, 4) = 1 - e^{-4}(1 + 4 + 8 + 32/3).
  const double expected = 1.0 - std::exp(-4.0) * (1.0 + 4.0 + 8.0 + 32.0 / 3.0);
  EXPECT_NEAR(RegularizedGammaP(4.0, 4.0), expected, 1e-12);
}

TEST(RegularizedGammaTest, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 20.0; x += 0.5) {
    const double p = RegularizedGammaP(3.5, x);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

class InverseGammaRoundTripTest : public ::testing::TestWithParam<double> {};

TEST_P(InverseGammaRoundTripTest, InvertsCdf) {
  const double a = GetParam();
  for (double p : {1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999999}) {
    const double x = InverseRegularizedGammaP(a, p);
    EXPECT_NEAR(RegularizedGammaP(a, x), p, 1e-9)
        << "a=" << a << " p=" << p << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, InverseGammaRoundTripTest,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0, 4.0, 10.0,
                                           50.0, 500.0));

TEST(InverseGammaTest, PaperWorstCasePercentile) {
  // The paper's T_trans^max uses the 99-percentile of a Gamma with shape 4
  // (mean 200 KB, sd 100 KB => shape 4, scale 50 KB): about 502 KB.
  const double shape = 4.0;
  const double scale = 50e3;
  const double q99 = scale * InverseRegularizedGammaP(shape, 0.99);
  EXPECT_NEAR(q99, 502e3, 2e3);
}

// Reference quantiles from mpmath 1.3.0, solved at 80 digits for the exact
// binary values of a and p (mpmath.mpf(float(p))): a 17-digit decimal p
// would move 1 - p by up to 5e-6 relative at p = 1 - 1e-12. Roots below the
// smallest normal double underflow to 0. Generated with
//
//   import mpmath as mp
//   mp.mp.dps = 80
//
//   def quantile(a, p):  # a, p: the C++ doubles, as Python floats
//       a, p = mp.mpf(a), mp.mpf(p)
//       up = p > 0.5  # solve on the smaller tail
//       target = 1 - p if up else p
//       def f(t):
//           x = mp.exp(t)
//           tail = (mp.gammainc(a, x, mp.inf, regularized=True) if up else
//                   mp.gammainc(a, 0, x, regularized=True))
//           return mp.log(tail / target)
//       t = mp.findroot(f, ((mp.log(p) + mp.loggamma(a + 1)) / a - 1,
//                           mp.log(a + 30 * mp.sqrt(a) + 30) + 1),
//                       solver='anderson', verify=False)
//       for _ in range(60):  # Newton: d ln(tail)/dt = +-x^a e^-x/(G(a) tail)
//           slope = mp.exp(a * t - mp.exp(t) - mp.loggamma(a) - f(t)) / target
//           t -= f(t) / (-slope if up else slope)
//       assert abs(f(t)) < 1e-30
//       return mp.exp(t)
//
//   for a in [0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 4.43, 10.0, 50.0, 500.0, 5000.0]:
//       print(a, [mp.nstr(quantile(a, p), 20) for p in
//                 [1e-300, 1e-100, 1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9,
//                  0.99, 0.999999, 1.0 - 1e-12]])
constexpr double kReferenceP[] = {1e-300, 1e-100, 1e-12, 1e-6, 0.01,
                                  0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999,
                                  1.0 - 1e-12};
constexpr int kReferencePCount = static_cast<int>(std::size(kReferenceP));

struct ReferenceRow {
  double a;
  double x[kReferencePCount];
};

constexpr ReferenceRow kReferenceQuantiles[] = {
    {0.05,
     {0.0 /* 5.84e-6001 */, 0.0 /* 5.84e-2001 */, 5.8446320572866766363e-241,
      5.8446320572865840511e-121, 5.8446320572865320095e-41,
      5.844632057286521124e-21, 2.0378971887326643863e-11,
      5.5738784407462475222e-7, 4.6656368489525835467e-4,
      7.6317113909188503953e-2, 1.0876274000918095811, 8.696862667893743804,
      2.1697680480762633063e+1}},
    {0.2,
     {0.0 /* 6.53e-1501 */, 0.0 /* 6.53e-501 */, 6.5254808434572817912e-61,
      6.5254808434572559485e-31, 6.5254808438120905912e-11,
      6.525516328619695392e-6, 1.5877907243441151789e-3,
      2.0746339192824844555e-2, 1.210375858887348505e-1,
      6.0490232098657405582e-1, 2.2023048669019380078, 1.0352781918306054649e+1,
      2.3547604722246519855e+1}},
    {0.5,
     {0.0 /* 7.85e-601 */, 7.8539816339744834102e-201,
      7.8539816339744827802e-25, 7.8539816339785947205e-13,
      7.854392895485099202e-5, 7.8953870467156133153e-3,
      7.4235930916272719042e-2, 2.2746821155978637597e-1,
      5.3709708542879256947e-1, 1.3527717270477074606, 3.3174483005106067781,
      1.1964063488439734528e+1, 2.5422085666224586716e+1}},
    {1.0,
     {1.0000000000000000251e-300, 1.00000000000000002e-100,
      1.0000000000004999799e-12, 1.0000005000003332883e-6,
      1.0050335853501441394e-2, 1.053605156578263074e-1,
      3.5667494393873236305e-1, 6.9314718055994530942e-1, 1.2039728043259358446,
      2.3025850929940459061, 4.6051701859880904799, 1.381551055793551844e+1,
      2.7631043237893358571e+1}},
    {2.0,
     {1.4142135623730950665e-150, 1.4142135623730950629e-50,
      1.4142142290401938224e-6, 1.4148806614793428782e-3,
      1.4855474025326594931e-1, 5.3181160838961203791e-1, 1.0973492107034916193,
      1.6783469900166606534, 2.4392164832802041522, 3.889720169867429337,
      6.6383520679938112474, 1.6688420790829440915e+1,
      3.1099896029053796565e+1}},
    {4.0,
     {2.2133638394006431987e-75, 2.2133638394006431959e-25,
      2.2143442501908929746e-3, 7.0992391358621097192e-2,
      8.2324868634538516204e-1, 1.7447695628249114196, 2.7637110426126474858,
      3.6720607488508961039, 4.7622290965359161168, 6.6807830682558639938,
      1.0045117514831615375e+1, 2.1350456963238943431e+1,
      3.6733033562803668169e+1}},
    {4.43,
     {4.5384291736817785595e-68, 6.3625678195147665122e-23,
      4.6619228522094638411e-3, 1.0744198369079845035e-1, 1.0121309597717660847,
      2.0359848935678059971, 3.1357822690142715423, 4.1014971887410776694,
      5.2491949730348232752, 7.2498788812575296065, 1.0723737936467215856e+1,
      2.2259620877522393616e+1, 3.7827560746576544619e+1}},
    {10.0,
     {4.5287286881167647736e-30, 4.5287286883032137125e-10,
      2.9346037331774014009e-1, 1.2768187878644079747, 4.1301991662731991104,
      6.221304605225032809, 8.1329282425063914406, 9.6687146147141311518,
      1.1387272536823214906e+1, 1.4205990292152817131e+1,
      1.8783117393312524109e+1, 3.2710340517484811728e+1,
      5.0279911306029829049e+1}},
    {50.0,
     {1.9483261670067779516e-5, 1.9558111701205562335e-1,
      1.5042083793080920269e+1, 2.3250665357946591483e+1,
      3.5032447462699899709e+1, 4.117906790617857309e+1,
      4.6064472169448347839e+1, 4.9667064617994227877e+1,
      5.3452880326922552689e+1, 5.9249001905531052805e+1,
      6.7903361585513387369e+1, 9.106338855971307163e+1,
      1.1690532168255424248e+2}},
    {500.0,
     {5.1632849087921601924e+1, 1.6146698514371746496e+2,
      3.584747393947488031e+2, 4.0081221880343286449e+2,
      4.4945622346480659796e+2, 4.7156628117144599687e+2,
      4.8803679562888707099e+2, 4.9966670620169048437e+2,
      5.1147993673594463183e+2, 5.2886195069080702276e+2,
      5.5348449717610866944e+2, 6.1357621059363896872e+2,
      6.7381011088231827728e+2}},
    {5000.0,
     {2.8162277249358314217e+3, 3.6423807880900834872e+3,
      4.5186288861791936801e+3, 4.6710509536164457983e+3,
      4.836974419788818073e+3, 4.9095974409224096151e+3,
      4.9626790049174842439e+3, 4.9996666706175724136e+3,
      5.0368376658534028195e+3, 5.0908308069151890307e+3,
      5.1659667889647242903e+3, 5.3433449149330193126e+3,
      5.51369019788949994e+3}},
};

TEST(InverseGammaTest, MatchesReferenceValues) {
  for (const ReferenceRow& row : kReferenceQuantiles) {
    for (int j = 0; j < kReferencePCount; ++j) {
      const double p = kReferenceP[j];
      const double expected = row.x[j];
      const double x = InverseRegularizedGammaP(row.a, p);
      if (expected == 0.0) {
        EXPECT_EQ(x, 0.0) << "a=" << row.a << " p=" << p;
      } else {
        EXPECT_LE(std::fabs(x - expected), 1e-13 * expected)
            << "a=" << row.a << " p=" << p << " x=" << x
            << " rel_err=" << std::fabs(x - expected) / expected;
      }
    }
  }
}

// Random shapes, log a uniform in [-4.6, 9.2], with p near 0, mid-range and
// near 1: the quantile is finite, non-decreasing in p, and reproduces the
// smaller tail, P(a, x) = p up to the median and Q(a, x) = 1 - p above it,
// to 1e-12 relative. Past a ~ 100 the bound is P's own rounding instead:
// its prefactor exp(-x + a ln x - ln Γ(a)) sums terms as large as a ln x,
// so P moves by up to 3e-11 relative between neighbouring doubles at
// a ~ 1e4, and no quantile can round-trip more tightly than that.
TEST(InverseGammaTest, RandomShapesInvertTheSmallerTail) {
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  Rng rng(15);
  for (int draw = 0; draw < 300; ++draw) {
    const double a = std::exp(rng.Uniform(-4.6, 9.2));
    std::vector<double> ps;
    for (int k = 0; k < 4; ++k) {
      ps.push_back(std::pow(10.0, -rng.Uniform(1.0, 300.0)));
      ps.push_back(rng.Uniform(0.01, 0.99));
      ps.push_back(1.0 - std::pow(10.0, -rng.Uniform(1.0, 15.0)));
    }
    std::sort(ps.begin(), ps.end());
    double previous = 0.0;
    for (double p : ps) {
      const double x = InverseRegularizedGammaP(a, p);
      ASSERT_TRUE(std::isfinite(x)) << "a=" << a << " p=" << p;
      EXPECT_GE(x, previous) << "a=" << a << " p=" << p;
      previous = x;
      if (x < kMinNormal) {
        // Underflowed: the root really is below the smallest normal double.
        EXPECT_GE(RegularizedGammaP(a, kMinNormal), p) << "a=" << a;
        continue;
      }
      const double tolerance = std::fmax(
          1e-12, 4.0 * kEps *
                     (x + a * std::fabs(std::log(x)) + std::fabs(LogGamma(a))));
      if (p <= 0.5) {
        EXPECT_NEAR(RegularizedGammaP(a, x), p, tolerance * p)
            << "a=" << a << " p=" << p << " x=" << x;
      } else {
        EXPECT_NEAR(RegularizedGammaQ(a, x), 1.0 - p, tolerance * (1.0 - p))
            << "a=" << a << " p=" << p << " x=" << x;
      }
    }
  }
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-12);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-12);
}

class NormalQuantileRoundTripTest : public ::testing::TestWithParam<double> {};

TEST_P(NormalQuantileRoundTripTest, InvertsCdf) {
  const double p = GetParam();
  EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-12) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, NormalQuantileRoundTripTest,
                         ::testing::Values(1e-10, 1e-6, 0.001, 0.025, 0.2, 0.5,
                                           0.8, 0.975, 0.999, 1.0 - 1e-6));

TEST(NormalQuantileTest, Symmetry) {
  for (double p : {0.01, 0.1, 0.3}) {
    EXPECT_NEAR(NormalQuantile(p), -NormalQuantile(1.0 - p), 1e-10);
  }
}

}  // namespace
}  // namespace zonestream::numeric
