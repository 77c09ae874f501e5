#include "numeric/special_functions.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace zonestream::numeric {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 3.0e-15;
constexpr double kTiny = 1.0e-300;
// InverseRegularizedGammaP: a cap on its steps (Halley converges in a few;
// bisecting the widest bracket to an ulp takes about 60) and the predicted
// error in ln x at which it stops.
constexpr int kMaxInverseSteps = 100;
constexpr double kInverseTolerance = 1.0e-17;

// Series for P(a, x) over the prefactor x^a e^{-x} / Γ(a), converges
// quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum;
}

// Continued fraction for Q(a, x) over the same prefactor (modified Lentz),
// converges for x > a + 1.
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

struct GammaTail {
  double value;      // P(a, x), or Q(a, x) for the upper tail
  double prefactor;  // x^a e^{-x} / Γ(a): x times the density, dP/d(ln x)
};

// P(a, x) or Q(a, x) for x > 0 given ln Γ(a): the series below a + 1, the
// continued fraction above it, and the complement for the other tail.
GammaTail IncompleteGamma(double a, double x, double log_gamma_a,
                          bool upper) {
  const double prefactor = std::exp(-x + a * std::log(x) - log_gamma_a);
  if (x < a + 1.0) {
    const double p = GammaPSeries(a, x) * prefactor;
    return {upper ? 1.0 - p : p, prefactor};
  }
  const double q = GammaQContinuedFraction(a, x) * prefactor;
  return {upper ? q : 1.0 - q, prefactor};
}

}  // namespace

double LogGamma(double x) {
  ZS_CHECK_GT(x, 0.0);
  return std::lgamma(x);
}

double RegularizedGammaP(double a, double x) {
  ZS_CHECK_GT(a, 0.0);
  ZS_CHECK_GE(x, 0.0);
  if (x == 0.0) return 0.0;
  return IncompleteGamma(a, x, LogGamma(a), /*upper=*/false).value;
}

double RegularizedGammaQ(double a, double x) {
  ZS_CHECK_GT(a, 0.0);
  ZS_CHECK_GE(x, 0.0);
  if (x == 0.0) return 1.0;
  return IncompleteGamma(a, x, LogGamma(a), /*upper=*/true).value;
}

double InverseRegularizedGammaP(double a, double p) {
  ZS_CHECK_GT(a, 0.0);
  ZS_CHECK_GE(p, 0.0);
  ZS_CHECK_LT(p, 1.0);
  if (p == 0.0) return 0.0;

  // Solve in t = ln x, where the lower tail P ~ x^a / Γ(a + 1) is close to
  // linear. Bracket: P(a, x) <= x^a / Γ(a + 1) for every x, so the leading
  // series term is below the root; Q(a, a + 30√a + 30) < 2^-53 <= 1 - p
  // for every shape, so that point is above it.
  const double log_gamma_a = LogGamma(a);
  double lo = (std::log(p) + std::log(a) + log_gamma_a) / a;
  double hi = std::log(a + 30.0 * std::sqrt(a) + 30.0);
  // Below the smallest normal double the leading term is the root to a
  // relative O(x); exp rounds it to a subnormal, or to 0 below those.
  if (lo < std::log(std::numeric_limits<double>::min())) return std::exp(lo);

  // Start from Wilson–Hilferty ((x/a)^{1/3} is nearly normal with mean
  // 1 - 1/(9a) and variance 1/(9a)) when a > 1, and from the series term
  // when a <= 1 or where Wilson–Hilferty falls below it.
  double t = lo;
  if (a > 1.0) {
    const double v = 1.0 / (9.0 * a);
    const double cube_root = 1.0 - v + NormalQuantile(p) * std::sqrt(v);
    if (cube_root > 0.0) {
      t = std::fmax(lo, std::log(a) + 3.0 * std::log(cube_root));
    }
  }

  // Above the median solve Q(a, x) = 1 - p, which is exact there, so the
  // upper tail keeps its relative precision. Either way the residual f
  // rises with t, f' = x^a e^{-x} / Γ(a) and f''/f' = a - x.
  const bool upper = p > 0.5;
  const double target = upper ? 1.0 - p : p;
  for (int i = 0; i < kMaxInverseSteps; ++i) {
    const double x = std::exp(t);
    const GammaTail tail = IncompleteGamma(a, x, log_gamma_a, upper);
    const double f = upper ? target - tail.value : tail.value - target;
    if (f < 0.0) {
      lo = t;
    } else {
      hi = t;
    }
    // Halley step. Its error after a step s is about
    // s^3 ((a - x)^2 / 12 + x / 6); stop once that is well below an ulp
    // and apply the last step to x itself, so large |t| costs no precision.
    const double u = f / tail.prefactor;
    const double step = u / (1.0 - 0.5 * u * (a - x));
    const double next_error =
        step * step * step * ((a - x) * (a - x) / 12.0 + x / 6.0);
    if (std::fabs(next_error) < kInverseTolerance) {
      return x * std::exp(-step);
    }
    // Bisect only when the step leaves the bracket (or is not finite).
    const double next = t - step;
    t = (next > lo && next < hi) ? next : 0.5 * (lo + hi);
  }
  return std::exp(t);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalQuantile(double p) {
  ZS_CHECK_GT(p, 0.0);
  ZS_CHECK_LT(p, 1.0);
  // Acklam's rational approximation.
  static constexpr double kA[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                   -2.759285104469687e+02, 1.383577518672690e+02,
                                   -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double kB[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                   -1.556989798598866e+02, 6.680131188771972e+01,
                                   -1.328068155288572e+01};
  static constexpr double kC[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                   -2.400758277161838e+00, -2.549732539343734e+00,
                                   4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double kD[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                   2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  constexpr double kHigh = 1.0 - kLow;

  double x;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
         kC[5]) /
        ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  } else if (p <= kHigh) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r +
         kA[5]) *
        q /
        (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r +
         1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
          kC[5]) /
        ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  }

  // One Halley polish step using the exact CDF/density.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace zonestream::numeric
