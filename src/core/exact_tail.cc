#include "core/exact_tail.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/admission.h"
#include "numeric/quadrature.h"
#include "numeric/special_functions.h"

namespace zonestream::core {
namespace {

// Gauss-Legendre order per unit piece. Order 64 moves no normal-range
// value on the engine-agreement grid by more than 1.1e-13 relative.
constexpr int kOrder = 16;

const GammaTransferModel* GammaTransfer(const ServiceTimeModel& model) {
  return dynamic_cast<const GammaTransferModel*>(&model.transfer_model());
}

common::Status NotGamma() {
  return common::Status::FailedPrecondition(
      "the exact tail needs a Gamma transfer model");
}

}  // namespace

void IrwinHallPieces(int n, double s, double* density) {
  // M_1 is the unit box. Each step is
  //   M_k(j + s) = ((j + s)·M_{k−1}(j + s) + (k − j − s)·M_{k−1}(j − 1 + s))
  //                / (k − 1),
  // run for j descending so M_{k−1}(j − 1 + s) is read before it is
  // overwritten.
  density[0] = 1.0;
  for (int j = 1; j < n; ++j) density[j] = 0.0;
  for (int k = 2; k <= n; ++k) {
    const double inverse = 1.0 / (k - 1);
    for (int j = k - 1; j > 0; --j) {
      density[j] =
          ((j + s) * density[j] + (k - j - s) * density[j - 1]) * inverse;
    }
    density[0] *= s * inverse;
  }
}

double IrwinHallPiece(int n, double s, int piece, double* density) {
  // IrwinHallPieces' updates, restricted to the entries M_n(piece + s)
  // depends on: at level k, j in [piece − (n − k), piece].
  density[0] = 1.0;
  for (int j = 1; j <= piece; ++j) density[j] = 0.0;
  for (int k = 2; k <= n; ++k) {
    const double inverse = 1.0 / (k - 1);
    const int lowest = piece - (n - k);
    for (int j = std::min(k - 1, piece); j >= std::max(lowest, 1); --j) {
      density[j] =
          ((j + s) * density[j] + (k - j - s) * density[j - 1]) * inverse;
    }
    if (lowest <= 0) density[0] *= s * inverse;
  }
  return density[piece];
}

common::StatusOr<double> ExactLateProbability(const ServiceTimeModel& model,
                                              int n, double t) {
  if (n <= 0) {
    return common::Status::InvalidArgument("n must be positive");
  }
  if (!(t > 0.0) || !std::isfinite(t)) {
    return common::Status::InvalidArgument("t must be positive and finite");
  }
  const GammaTransferModel* gamma = GammaTransfer(model);
  if (gamma == nullptr) return NotGamma();
  const double slack = t - model.SeekBound(n);
  if (slack <= 0.0) return 1.0;
  const double rotation = model.rotation_time();
  const double shape = n * gamma->beta();
  // P[transfer sum >= time left once the latencies total ROT·x].
  const auto transfer_tail = [&](double x) {
    const double left = gamma->alpha() * (slack - rotation * x);
    return left > 0.0 ? numeric::RegularizedGammaQ(shape, left) : 1.0;
  };
  // Beyond the kink the transfer tail is 1; its piece is split there.
  const double kink = slack / rotation;
  const int kink_piece = kink < n ? static_cast<int>(kink) : n;

  const numeric::GaussLegendreNodes& rule = numeric::GaussLegendreRule(kOrder);
  std::vector<double> density(n);
  double tail = 0.0;
  for (int i = 0; i < kOrder; ++i) {
    const double s = 0.5 + 0.5 * rule.nodes[i];
    const double weight = 0.5 * rule.weights[i];
    IrwinHallPieces(n, s, density.data());
    for (int j = 0; j < n; ++j) {
      if (j != kink_piece) tail += weight * density[j] * transfer_tail(j + s);
    }
  }
  if (kink_piece < n) {
    // [kink_piece, kink] and [kink, kink_piece + 1], one pass per node.
    const double below = kink - kink_piece;
    for (int i = 0; i < kOrder; ++i) {
      const double s = 0.5 + 0.5 * rule.nodes[i];
      const double weight = 0.5 * rule.weights[i];
      tail += below * weight *
              IrwinHallPiece(n, below * s, kink_piece, density.data()) *
              transfer_tail(kink_piece + below * s);
      tail += (1.0 - below) * weight *
              IrwinHallPiece(n, below + (1.0 - below) * s, kink_piece,
                             density.data());
    }
  }
  // The rule's mass error (below 1e-13) can lift a certain tail past 1.
  return std::fmin(tail, 1.0);
}

common::StatusOr<int> ExactMaxStreams(const ServiceTimeModel& model, double t,
                                      double delta, int n_cap) {
  if (GammaTransfer(model) == nullptr) return NotGamma();
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [&](int n) { return ExactLateProbability(model, n, t).value(); };
  });
}

}  // namespace zonestream::core
