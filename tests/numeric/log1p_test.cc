// numeric::Log1p against libm: within 1 ulp of glibc's log1p and of a
// long-double reference on dense grids where fdlibm's algorithm switches
// regime — around 2^-29 (fdlibm's dropped small-x shortcut), around the
// 0.41422 cut between the k = 0 and the reduced paths, around every
// 2^k - 1 (where 1 + x crosses a binade and k steps) — and up to the
// largest finite double.
#include "numeric/log1p.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/random.h"

namespace zonestream::numeric {
namespace {

// Distance in representable doubles between two finite non-negatives.
int64_t UlpDistance(double a, double b) {
  const int64_t ia = std::bit_cast<int64_t>(a);
  const int64_t ib = std::bit_cast<int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

// |got - reference| in units of the double spacing at the reference.
double UlpError(double got, long double reference) {
  const double rounded = static_cast<double>(reference);
  const double ulp = std::nextafter(rounded, INFINITY) - rounded;
  return static_cast<double>(
      std::fabs((static_cast<long double>(got) - reference) / ulp));
}

// `center` scaled by 1 + j 2^-20 for |j| <= 2000, plus its 64 nearest
// neighbours on each side.
void AddDenseGrid(double center, std::vector<double>* xs) {
  for (int j = -2000; j <= 2000; ++j) {
    xs->push_back(center * (1.0 + j * 0x1.0p-20));
  }
  double below = center;
  double above = center;
  for (int j = 0; j < 64; ++j) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, INFINITY);
    xs->push_back(below);
    xs->push_back(above);
  }
}

void ExpectWithinOneUlp(const std::vector<double>& xs) {
  int failures = 0;
  for (const double x : xs) {
    const double got = Log1p(x);
    const int64_t libm = UlpDistance(got, std::log1p(x));
    const double extended = UlpError(got, log1pl(static_cast<long double>(x)));
    if (libm > 1 || extended > 1.0) {
      ADD_FAILURE() << "x=" << x << " (" << std::hexfloat << x
                    << std::defaultfloat << "): " << libm
                    << " ulp from std::log1p, " << extended
                    << " ulp from log1pl";
      if (++failures > 10) return;
    }
  }
}

TEST(Log1pTest, WithinOneUlpAroundTheSmallArgumentEdge) {
  std::vector<double> xs;
  AddDenseGrid(0x1.0p-29, &xs);
  AddDenseGrid(0x1.0p-54, &xs);
  ExpectWithinOneUlp(xs);
}

TEST(Log1pTest, WithinOneUlpAroundTheReductionCut) {
  std::vector<double> xs;
  AddDenseGrid(0x1.a827ap-2, &xs);
  AddDenseGrid(std::sqrt(2.0) - 1.0, &xs);
  ExpectWithinOneUlp(xs);
}

TEST(Log1pTest, WithinOneUlpAroundPowersOfTwoMinusOne) {
  std::vector<double> xs;
  for (int k = 1; k <= 60; ++k) AddDenseGrid(std::ldexp(1.0, k) - 1.0, &xs);
  ExpectWithinOneUlp(xs);
}

TEST(Log1pTest, WithinOneUlpForLargeArguments) {
  std::vector<double> xs;
  for (const double center : {0x1.0p52, 0x1.0p53, 0x1.0p54, 1e100, 1e300}) {
    AddDenseGrid(center, &xs);
  }
  xs.push_back(DBL_MAX);
  ExpectWithinOneUlp(xs);
}

TEST(Log1pTest, WithinOneUlpOnALogUniformSample) {
  Rng rng(2026);
  std::vector<double> xs(200000);
  for (double& x : xs) x = std::exp2(-1074.0 + 2097.0 * rng.Uniform01());
  ExpectWithinOneUlp(xs);
}

TEST(Log1pTest, ExactAtZeroAndForTinyArguments) {
  EXPECT_EQ(std::bit_cast<uint64_t>(Log1p(0.0)), 0u);  // +0, not -0
  for (const double x : {DBL_TRUE_MIN, DBL_MIN, 0x1.0p-60, 0x1.fffffp-55}) {
    EXPECT_EQ(Log1p(x), x) << x;
  }
}

}  // namespace
}  // namespace zonestream::numeric
