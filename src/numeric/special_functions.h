// Special functions needed by the analytic model: log-gamma, the regularized
// incomplete gamma function and its inverse (Gamma-distribution CDF and
// quantiles), and the standard normal CDF / quantile (for the CLT baseline).
//
// Implemented from scratch (series / continued-fraction expansions in the
// style of Numerical Recipes); only std::lgamma/std::erfc are taken from
// the standard library.
#ifndef ZONESTREAM_NUMERIC_SPECIAL_FUNCTIONS_H_
#define ZONESTREAM_NUMERIC_SPECIAL_FUNCTIONS_H_

namespace zonestream::numeric {

// Natural log of the Gamma function, ln Γ(x), for x > 0.
double LogGamma(double x);

// Regularized lower incomplete gamma function P(a, x) = γ(a, x) / Γ(a),
// for a > 0, x >= 0. This is the CDF of a Gamma(shape=a, scale=1) variate.
double RegularizedGammaP(double a, double x);

// Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

// Inverse of P(a, .): returns x such that P(a, x) = p, for p in [0, 1).
// Used for Gamma-distribution percentiles (e.g. the paper's 99-percentile
// fragment size in the worst-case comparison, eq. 4.1) and for every frame
// of workload::VbrTraceGenerator. A bracketed Halley iteration in ln x from
// a Wilson–Hilferty (a > 1) or leading-series-term start, usually two or
// three P/Q evaluations; above the median it solves Q(a, x) = 1 - p so the
// upper tail keeps full relative precision. Returns 0 where the root is
// below the smallest double.
double InverseRegularizedGammaP(double a, double p);

// CDF of the standard normal distribution.
double NormalCdf(double x);

// Quantile (inverse CDF) of the standard normal distribution, p in (0, 1).
// Acklam's rational approximation polished with one Newton step; absolute
// error well below 1e-9 over the full open interval.
double NormalQuantile(double p);

}  // namespace zonestream::numeric

#endif  // ZONESTREAM_NUMERIC_SPECIAL_FUNCTIONS_H_
