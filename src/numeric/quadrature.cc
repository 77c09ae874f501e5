#include "numeric/quadrature.h"

#include <cmath>
#include <vector>

#include "common/check.h"

namespace zonestream::numeric {
namespace {

// Computes Gauss-Legendre nodes and weights on [-1, 1] by Newton iteration
// on the Legendre polynomial P_n (roots are bracketed by the Chebyshev-like
// initial guess cos(pi*(i - 0.25)/(n + 0.5))).
GaussLegendreNodes ComputeGaussLegendre(int n) {
  GaussLegendreNodes nw;
  nw.nodes.resize(n);
  nw.weights.resize(n);
  const int m = (n + 1) / 2;
  for (int i = 0; i < m; ++i) {
    double x = std::cos(M_PI * (static_cast<double>(i) + 0.75) /
                        (static_cast<double>(n) + 0.5));
    double dp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      // Evaluate P_n(x) and P'_n(x) via the three-term recurrence.
      double p0 = 1.0;
      double p1 = x;
      for (int k = 2; k <= n; ++k) {
        const double pk = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
        p0 = p1;
        p1 = pk;
      }
      dp = n * (x * p1 - p0) / (x * x - 1.0);
      const double dx = p1 / dp;
      x -= dx;
      if (std::fabs(dx) < 1e-15) break;
    }
    nw.nodes[i] = -x;
    nw.nodes[n - 1 - i] = x;
    const double w = 2.0 / ((1.0 - x * x) * dp * dp);
    nw.weights[i] = w;
    nw.weights[n - 1 - i] = w;
  }
  return nw;
}

template <int kOrder>
const GaussLegendreNodes& Rule() {
  static const GaussLegendreNodes rule = ComputeGaussLegendre(kOrder);
  return rule;
}

}  // namespace

const GaussLegendreNodes& GaussLegendreRule(int order) {
  switch (order) {
    case 8:
      return Rule<8>();
    case 16:
      return Rule<16>();
    case 32:
      return Rule<32>();
  }
  common::FatalCheckFailure(__FILE__, __LINE__,
                            "unsupported Gauss-Legendre order");
}

double GaussLegendre(const std::function<double(double)>& f, double a,
                     double b, int order) {
  const GaussLegendreNodes& nw = GaussLegendreRule(order);
  const double half = 0.5 * (b - a);
  const double mid = 0.5 * (a + b);
  double sum = 0.0;
  for (int i = 0; i < order; ++i) {
    sum += nw.weights[i] * f(mid + half * nw.nodes[i]);
  }
  return half * sum;
}

double CompositeGaussLegendre(const std::function<double(double)>& f, double a,
                              double b, int segments, int order) {
  ZS_CHECK_GT(segments, 0);
  const double h = (b - a) / segments;
  double sum = 0.0;
  for (int s = 0; s < segments; ++s) {
    sum += GaussLegendre(f, a + s * h, a + (s + 1) * h, order);
  }
  return sum;
}

}  // namespace zonestream::numeric
