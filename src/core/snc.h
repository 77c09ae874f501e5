// Stochastic network calculus admission engine (ROADMAP item 2).
//
// Jiang's stochastic network calculus ("Analysis of Stochastic Service
// Guarantees in Communication Networks: A Basic Calculus", PAPERS.md)
// reframes the paper's admission problem in arrival/service-curve terms:
//
//   * Each stream class contributes a stochastic arrival envelope — an
//     MGF (v.b.c.-style) bounding function for the work it injects per
//     round: log E[e^{θ·demand over k rounds}] <= σ(θ) + k·ρ(θ). For the
//     paper's i.i.d. per-round demand (rotational latency + transfer
//     per request), σ = 0 and ρ(θ) is the per-round per-stream log-MGF.
//   * The disk round process offers a stochastic service curve: a
//     rate-latency curve with rate 1 (one second of service per second
//     of round) whose per-round latency deficit is the seek overhead —
//     entering the exponent as the seek log-MGF term (deterministic
//     θ·SEEK(n) under the equidistant bound, distributional under the
//     Bachmat bound, see seek_bound_bachmat.h).
//   * The SNC delay-bound theorem then bounds the probability a round's
//     demand exceeds its service:
//       P[T_n > t] <= inf_θ exp(n·ρ(θ) + σ_seek(n, θ) - θ·t).
//
// At horizon 1 this exponent coincides mathematically with the paper's
// Chernoff bound (both are the Legendre transform of the same round
// CGF), which is precisely what makes it the cross-check ROADMAP asks
// for: the two engines share no bound/optimizer code (SncEngine carries
// its own grid + golden-section minimizer; the Chernoff path uses Brent
// via chernoff.cc/late_bound_scan.cc), so agreement of their N_max
// tables end-to-end validates both numerical stacks. The genuinely new
// capability is the multi-round bound: CumulativeLatenessBound bounds
// the probability that the server ever falls a given slack behind over a
// whole window of rounds — a busy-period/backlog union bound the
// Chernoff machinery does not express. docs/BOUNDS.md has derivations.
#ifndef ZONESTREAM_CORE_SNC_H_
#define ZONESTREAM_CORE_SNC_H_

#include <functional>
#include <string>
#include <vector>

#include "core/multiclass.h"
#include "core/service_time_model.h"

namespace zonestream::core {

// MGF-style stochastic arrival envelope of one stream class: the demand
// a single stream of the class injects over k rounds satisfies
// log E[e^{θ·demand}] <= sigma + k·rho(θ) for θ in [0, theta_max).
struct SncEnvelope {
  std::string name;
  double theta_max = 0.0;
  double sigma = 0.0;                  // burst term (0 for i.i.d. rounds)
  std::function<double(double)> rho;   // per-round log-MGF per stream
};

// Envelope of the (single-class) round model's per-stream demand:
// rho(θ) = PerRequestLogMgf(θ) (rotational latency + transfer).
SncEnvelope EnvelopeForModel(const ServiceTimeModel& model);

// One envelope per class of a heterogeneous mix (CBR classes have
// near-degenerate transfer MGFs, VBR classes fat ones).
std::vector<SncEnvelope> EnvelopesForClasses(
    const MultiClassServiceModel& model);

// Result of one SNC bound optimization.
struct SncBoundResult {
  double bound = 1.0;       // the probability bound, clamped to [0, 1]
  double theta_star = 0.0;  // optimizing θ (0 when the trivial bound wins)
  double exponent = 0.0;    // log of the unclamped bound at θ*
  bool converged = false;
};

// The SNC admission engine for one disk's round process. Immutable and
// thread-compatible; owns a copy of the model (cheap — the transfer
// model is shared).
class SncEngine {
 public:
  // `t` is the round length in seconds (must be positive and finite).
  SncEngine(const ServiceTimeModel& model, double t);

  const ServiceTimeModel& model() const { return model_; }
  double round_length() const { return t_; }

  // Aggregate arrival-envelope rate of n streams at θ: n·rho(θ).
  double ArrivalEnvelope(int n, double theta) const;

  // Service-curve latency deficit at θ: the seek log-MGF term of a round
  // with n requests (θ·SEEK(n) equidistant; distributional for Bachmat).
  double ServiceDeficit(int n, double theta) const;

  // Horizon-1 delay bound: P[round with n streams overruns t]. Returns 0
  // for n == 0.
  SncBoundResult RoundDelayBound(int n) const;

  // Multi-round backlog bound: P[the cumulative lateness over some
  // prefix of up to `horizon` consecutive rounds exceeds `slack_s`],
  //   P[max_{k<=H} Σ_{i<=k} (T_i - t) >= b]
  //     <= inf_θ e^{-θb} Σ_{k=1..H} e^{k·(K_n(θ) - θt)},
  // a union bound over busy-period starts with i.i.d. rounds.
  // `horizon` <= 0 means unbounded: the geometric sum converges whenever
  // the per-round drift K_n(θ) - θt is negative at the optimizing θ; if
  // no θ gives negative drift the bound is the trivial 1. `slack_s` must
  // be >= 0.
  SncBoundResult CumulativeLatenessBound(int n, double slack_s,
                                         int horizon = 0) const;

 private:
  // Independent 1-D minimizer (log-spaced grid bracket + golden-section
  // refinement) — deliberately NOT ChernoffTailBound, so the SNC column
  // of the comparison harness shares no optimizer code with the paper
  // engine.
  SncBoundResult Minimize(
      const std::function<double(double)>& exponent) const;

  ServiceTimeModel model_;
  double t_;
};

// Largest N whose SNC round-delay bound stays within delta; sentinel 0
// for invalid queries (same ValidateAdmissionQuery contract as the rest
// of the MaxStreams* family).
int SncMaxStreams(const ServiceTimeModel& model, double t, double delta,
                  int n_cap = 4096);

// Horizon-1 SNC delay bound for a heterogeneous class mix: the per-class
// envelopes compose additively in the exponent,
//   P[T > t] <= inf_θ exp(Σ_c n_c·rho_c(θ) + θ·SEEK(Σ n_c) - θ·t).
// Cross-checked against MultiClassServiceModel::LateBound in tests.
SncBoundResult SncRoundDelayBoundMixed(const MultiClassServiceModel& model,
                                       const ClassCounts& counts, double t);

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_SNC_H_
