// Numerical integration. Used to (a) compute exact moments of the
// multi-zone transfer-time density f_trans (eq. 3.2.7) for validating the
// paper's moment-matched Gamma approximation, (b) evaluate empirical
// moment generating functions for size distributions without a closed-form
// transform (Lognormal, truncated Pareto), and (c) integrate the exact
// model tail against the Irwin-Hall density (core/exact_tail.h).
#ifndef ZONESTREAM_NUMERIC_QUADRATURE_H_
#define ZONESTREAM_NUMERIC_QUADRATURE_H_

#include <functional>
#include <vector>

namespace zonestream::numeric {

// Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.
struct GaussLegendreNodes {
  std::vector<double> nodes;
  std::vector<double> weights;
};

// The `order`-point Gauss-Legendre rule. Supported orders: 8, 16, 32.
// Each rule is computed once, on first use (thread-safe).
const GaussLegendreNodes& GaussLegendreRule(int order);

// Fixed-order Gauss-Legendre quadrature of f over [a, b]. Supported orders:
// 8, 16, 32. Exact for polynomials of degree <= 2*order - 1.
double GaussLegendre(const std::function<double(double)>& f, double a,
                     double b, int order = 32);

// Composite Gauss-Legendre: splits [a, b] into `segments` equal pieces and
// applies `order`-point Gauss-Legendre on each. Robust for moderately
// peaked integrands such as the f_trans density.
double CompositeGaussLegendre(const std::function<double(double)>& f, double a,
                              double b, int segments, int order = 32);

}  // namespace zonestream::numeric

#endif  // ZONESTREAM_NUMERIC_QUADRATURE_H_
