#include "core/snc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/admission.h"

namespace zonestream::core {

namespace {

// Independent 1-D minimizer over θ in (0, theta_max): a log-spaced grid
// locates the (quasi-)convex minimum's neighborhood, then golden-section
// refines the bracket. Deliberately NOT ChernoffTailBound/Brent — the SNC
// engine must share no optimizer code with the paper's Chernoff path so
// that agreeing N_max tables cross-check both numerical stacks.
SncBoundResult MinimizeExponentOverDomain(
    const std::function<double(double)>& exponent, double theta_max) {
  ZS_CHECK_GT(theta_max, 0.0);
  double hi = std::isfinite(theta_max) ? theta_max * (1.0 - 1e-9) : 1.0;
  if (!std::isfinite(theta_max)) {
    // Expand until the exponent stops decreasing (convexity ⇒ the
    // minimum is then bracketed).
    for (int i = 0; i < 200 && exponent(2.0 * hi) < exponent(hi); ++i) {
      hi *= 2.0;
    }
    hi *= 2.0;
  }

  constexpr int kGridPoints = 96;
  const double lo = hi * 1e-7;
  const double log_lo = std::log(lo);
  const double step = (std::log(hi) - log_lo) / (kGridPoints - 1);
  double grid[kGridPoints];
  int best_index = 0;
  double best_value = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kGridPoints; ++i) {
    grid[i] = std::exp(log_lo + step * static_cast<double>(i));
    const double value = exponent(grid[i]);
    if (value < best_value) {
      best_value = value;
      best_index = i;
    }
  }

  // Golden-section refinement inside the neighboring grid points.
  constexpr double kInvPhi = 0.6180339887498949;  // 1/φ
  double a = best_index > 0 ? grid[best_index - 1] : lo * 0.5;
  double b = best_index + 1 < kGridPoints ? grid[best_index + 1] : hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = exponent(x1);
  double f2 = exponent(x2);
  // ~60 shrinks of factor 1/φ reduce the bracket by ~1e-12.
  for (int i = 0; i < 90 && (b - a) > 1e-12 * hi; ++i) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = exponent(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = exponent(x2);
    }
  }
  const double theta_refined = 0.5 * (a + b);
  const double value_refined = exponent(theta_refined);

  SncBoundResult result;
  result.converged = true;
  // Sub-ulp wobble of the refinement must not report a value above the
  // best grid point.
  if (value_refined <= best_value) {
    result.theta_star = theta_refined;
    result.exponent = value_refined;
  } else {
    result.theta_star = grid[best_index];
    result.exponent = best_value;
  }
  if (result.exponent >= 0.0) {
    // The exponent never dips below 0 in the window: the trivial bound.
    result.bound = 1.0;
    result.theta_star = 0.0;
    result.exponent = 0.0;
  } else {
    result.bound = std::exp(result.exponent);
  }
  return result;
}

SncBoundResult ZeroStreamsBound() {
  SncBoundResult result;
  result.bound = 0.0;
  result.exponent = -std::numeric_limits<double>::infinity();
  result.converged = true;
  return result;
}

}  // namespace

SncEnvelope EnvelopeForModel(const ServiceTimeModel& model) {
  SncEnvelope envelope;
  envelope.name = "stream";
  envelope.theta_max = model.theta_max();
  envelope.sigma = 0.0;
  envelope.rho = [model](double theta) {
    return model.PerRequestLogMgf(theta);
  };
  return envelope;
}

std::vector<SncEnvelope> EnvelopesForClasses(
    const MultiClassServiceModel& model) {
  std::vector<SncEnvelope> envelopes;
  envelopes.reserve(model.num_classes());
  for (int c = 0; c < model.num_classes(); ++c) {
    ClassCounts one(model.num_classes(), 0);
    one[c] = 1;
    SncEnvelope envelope;
    envelope.name = model.stream_class(c).name;
    envelope.theta_max = model.ThetaMax(one);
    envelope.sigma = 0.0;
    // Per-stream round demand of class c: rotation + class transfer. The
    // mix log-MGF at the unit vector includes the shared seek term, which
    // belongs to the service curve, not the arrival — subtract it.
    const double seek_one = model.SeekBound(one);
    envelope.rho = [model, one, seek_one](double theta) {
      return model.LogMgf(one, theta) - theta * seek_one;
    };
    envelopes.push_back(std::move(envelope));
  }
  return envelopes;
}

SncEngine::SncEngine(const ServiceTimeModel& model, double t)
    : model_(model), t_(t) {
  ZS_CHECK_GT(t, 0.0);
  ZS_CHECK(std::isfinite(t));
}

double SncEngine::ArrivalEnvelope(int n, double theta) const {
  ZS_CHECK_GE(n, 0);
  return static_cast<double>(n) * model_.PerRequestLogMgf(theta);
}

double SncEngine::ServiceDeficit(int n, double theta) const {
  return model_.SeekLogMgf(n, theta);
}

SncBoundResult SncEngine::Minimize(
    const std::function<double(double)>& exponent) const {
  return MinimizeExponentOverDomain(exponent, model_.theta_max());
}

SncBoundResult SncEngine::RoundDelayBound(int n) const {
  ZS_CHECK_GE(n, 0);
  if (n == 0) return ZeroStreamsBound();
  const double t = t_;
  const auto exponent = [this, n, t](double theta) {
    return ArrivalEnvelope(n, theta) + ServiceDeficit(n, theta) - theta * t;
  };
  return Minimize(exponent);
}

SncBoundResult SncEngine::CumulativeLatenessBound(int n, double slack_s,
                                                  int horizon) const {
  ZS_CHECK_GE(n, 0);
  ZS_CHECK_GE(slack_s, 0.0);
  if (n == 0) return ZeroStreamsBound();
  const double t = t_;
  const auto exponent = [this, n, t, slack_s, horizon](double theta) {
    // Per-round drift of the lateness random walk at θ.
    const double drift =
        ArrivalEnvelope(n, theta) + ServiceDeficit(n, theta) - theta * t;
    double log_sum;
    if (horizon <= 0) {
      if (drift >= 0.0) return std::numeric_limits<double>::infinity();
      // log Σ_{k>=1} e^{k·drift} = drift - log(1 - e^{drift}).
      log_sum = drift - std::log1p(-std::exp(drift));
    } else if (drift >= -1e-15) {
      // Flat or positive drift: bound the finite sum by H·e^{H·drift}.
      log_sum = std::log(static_cast<double>(horizon)) +
                std::fmax(static_cast<double>(horizon) * drift, drift);
    } else {
      // log(e^d (1 - e^{Hd}) / (1 - e^d)).
      log_sum = drift +
                std::log1p(-std::exp(static_cast<double>(horizon) * drift)) -
                std::log1p(-std::exp(drift));
    }
    return -theta * slack_s + log_sum;
  };
  return Minimize(exponent);
}

int SncMaxStreams(const ServiceTimeModel& model, double t, double delta,
                  int n_cap) {
  // The same search as the Chernoff path over different bound
  // evaluations. The engine is built only once the query is valid: its
  // constructor rejects a bad t.
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [engine = SncEngine(model, t)](int n) {
      return engine.RoundDelayBound(n).bound;
    };
  });
}

SncBoundResult SncRoundDelayBoundMixed(const MultiClassServiceModel& model,
                                       const ClassCounts& counts, double t) {
  ZS_CHECK_GT(t, 0.0);
  const int total = MultiClassServiceModel::TotalStreams(counts);
  if (total == 0) return ZeroStreamsBound();
  const std::vector<SncEnvelope> envelopes = EnvelopesForClasses(model);
  const double seek = model.SeekBound(counts);
  const double theta_max = model.ThetaMax(counts);
  const auto exponent = [&envelopes, &counts, seek, t](double theta) {
    double value = theta * (seek - t);
    for (size_t c = 0; c < envelopes.size() && c < counts.size(); ++c) {
      if (counts[c] == 0) continue;
      value += static_cast<double>(counts[c]) * envelopes[c].rho(theta);
    }
    return value;
  };
  return MinimizeExponentOverDomain(exponent, theta_max);
}

}  // namespace zonestream::core
