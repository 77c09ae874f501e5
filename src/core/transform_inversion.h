// Exact numeric inversion of the round service-time transform (extension).
//
// The paper derives the Laplace-Stieltjes transform of T_N (eq. 3.1.4)
// and then *bounds* its tail with Chernoff's method. With 1990s compute
// that was the only option fast enough for admission control; today the
// transform can simply be inverted numerically. The Gil-Pelaez formula
// gives the exact tail from the characteristic function φ(u) = E[e^{iuT}]:
//
//   P[T >= t] = 1/2 + (1/π) ∫_0^∞ Im(e^{-iut} φ(u)) / u du.
//
// For the round transform the integrand decays like
// |2 sin(uROT/2)/(uROT)|^N — superexponentially in N — so a modest
// composite quadrature suffices. This yields the model-exact p_late,
// which the A1 ablation uses to split the total conservatism of the
// paper's bound into (a) the Oyang-seek/model-vs-simulation gap and
// (b) the Chernoff-vs-exact-tail slack.
//
// Accuracy note: the inversion carries an absolute noise floor
// (quadrature and truncation residuals of an oscillatory integral whose
// value is the tail minus 1/2), and the floor depends on the disk, the
// size law and t. Measured as the largest ExactLateProbability over the n
// where the saddlepoint estimate is below 1e-10, maximized over
// t in {0.5, 1, 2} s (Gamma size laws, mean/stddev in bytes):
//
//   preset         200k/100k   64k/32k    1M/1M
//   viking2100     2.2e-6      9.2e-6     0
//   viking-1zone   2.8e-6      9.9e-6     0
//   small-synth    9.5e-8      2.6e-6     0
//   fast-synth     7.6e-6      3.3e-5     3.4e-10
//
// On the Table 1 model at t = 1 s the inversion reads 2.6e-7 at n = 12
// (saddlepoint: 0) and 3.5e-7 at n = 21 against 7.8e-9 at n = 22, where
// the saddlepoint reads 7.5e-9 and 1.0e-7. That noise trips a
// first-violation search: ExactMaxStreams would return 11, 7 and 3 at
// delta = 2e-7, 1e-7 and 1e-8, where the saddlepoint gives 22, 21 and 21.
// So below 1e-4 use the Chernoff bound or the saddlepoint estimate
// instead. From 1e-4 up, over the 36 configurations of the table,
// ExactMaxStreams equals SaddlepointMaxStreams at delta = 1e-4 in every
// one and p(n) never decreases, and on the Table 1 model at t = 1 s the
// two estimates agree within 0.5% from n = 25 (p = 6.3e-5) up.
#ifndef ZONESTREAM_CORE_TRANSFORM_INVERSION_H_
#define ZONESTREAM_CORE_TRANSFORM_INVERSION_H_

#include <complex>
#include <functional>

#include "common/status.h"
#include "core/service_time_model.h"

namespace zonestream::core {

// Options for the Gil-Pelaez quadrature.
struct InversionOptions {
  // Integration cutoff: u is truncated where the envelope of |φ(u)|/u
  // falls below this times the accumulated integral.
  double tail_tolerance = 1e-12;
  // Quadrature points per oscillation period 2π/t.
  int points_per_period = 24;
  // Hard cap on the integration range (periods of 2π/t).
  int max_periods = 40000;
};

// Gil-Pelaez tail probability for an arbitrary characteristic function.
// `cf` must be the characteristic function of a non-negative random
// variable; the result is clamped to [0, 1].
double GilPelaezTailProbability(
    const std::function<std::complex<double>(double)>& cf, double t,
    const InversionOptions& options = {});

// Model-exact p_late(n, t) for a ServiceTimeModel whose transfer model
// exposes a characteristic function (the Gamma transfer models do).
// Returns FailedPrecondition otherwise.
common::StatusOr<double> ExactLateProbability(
    const ServiceTimeModel& model, int n, double t,
    const InversionOptions& options = {});

// Smallest tolerance ExactMaxStreams answers: the noise floor above, with
// margin. At 1e-4 its limit equals SaddlepointMaxStreams' on every
// configuration of the table.
inline constexpr double kExactMaxStreamsMinTolerance = 1e-4;

// Largest N with model-exact p_late <= delta, by MaxStreamsWithin
// (admission.h): an invalid (t, delta) query returns 0. Returns
// FailedPrecondition for a model without a characteristic function, and
// OutOfRange for a valid delta below kExactMaxStreamsMinTolerance, where
// inversion noise would end the search early.
common::StatusOr<int> ExactMaxStreams(const ServiceTimeModel& model, double t,
                                      double delta, int n_cap = 4096);

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_TRANSFORM_INVERSION_H_
