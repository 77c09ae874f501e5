// The model-exact tail of the round service time (extension).
//
// The paper derives the transform of T_N (eq. 3.1.4) and then *bounds*
// its tail with Chernoff's method. For the Gamma-matched model the tail
// itself is a one-dimensional integral. With SEEK(n) the equidistant seek
// bound, X = Σ U_i the n rotational latencies in units of ROT (Irwin-Hall
// on [0, n]) and the transfer sum Gamma(shape n·β, rate α),
//
//   P[T_n >= t] = ∫_0^n M_n(x) · Q(n·β, α·(t − SEEK(n) − ROT·x)) dx,
//
// where M_n is the Irwin-Hall density and Q the regularized upper
// incomplete gamma function, 1 where its argument is <= 0. M_n is a
// degree n − 1 polynomial on each unit piece, evaluated by the B-spline
// recursion (IrwinHallPieces), whose weights are non-negative, so nothing
// cancels. Each piece takes 16-point Gauss-Legendre; the piece holding the
// kink x = (t − SEEK(n))/ROT is split there, and its 32 nodes each run the
// recursion only for that piece (IrwinHallPiece). Every term is non-negative,
// so the tail keeps its relative accuracy deep into the tail, has no noise
// floor, and never decreases in n. On the engine-agreement grid (four
// presets × four Gamma size laws × t ∈ {0.5, 1, 2} s, n from 1 until the
// tail passes 0.999), orders 16 and 64 differ by at most 1.1e-13 relative
// wherever the tail is a normal double, and the saddlepoint estimate is
// within 3.9% of this tail wherever it lies in [1e-12, 1e-3].
//
// Cost: O(16·n²) for the density passes plus up to 16·n Q evaluations.
// On the Table 1 model at t = 1 s (one pinned CPU of a 4-vCPU Xeon VM):
// 0.8 µs at n = 1, 80 µs at n = 26, 0.4 ms at n = 100 and 2 ms at
// n = 300, where the tail is 1.
//
// A1 uses this value to split the paper's 26-vs-28 gap into Chernoff slack
// and the seek bound's conservatism.
#ifndef ZONESTREAM_CORE_EXACT_TAIL_H_
#define ZONESTREAM_CORE_EXACT_TAIL_H_

#include "common/status.h"
#include "core/service_time_model.h"

namespace zonestream::core {

// Irwin-Hall density M_n (the sum of n i.i.d. U(0, 1)) at x = j + s for
// every unit piece j = 0 … n − 1, written to density[j]. Requires n >= 1
// and s in [0, 1); `density` holds n values.
void IrwinHallPieces(int n, double s, double* density);

// M_n(piece + s) alone, bit-identical to IrwinHallPieces' density[piece]:
// the same updates, run only on the entries that one depends on, which at
// n = 300 and piece = 30 is about a fifth of the pass. Requires
// 0 <= piece < n; `density` is scratch for piece + 1 values.
double IrwinHallPiece(int n, double s, int piece, double* density);

// Model-exact p_late(n, t) = P[T_n >= t] by the integral above. Returns
// InvalidArgument unless n >= 1 and t is positive and finite, and
// FailedPrecondition unless the transfer model is a GammaTransferModel.
// The seek term is SeekBound(n) whatever seek_bound_kind() says.
common::StatusOr<double> ExactLateProbability(const ServiceTimeModel& model,
                                              int n, double t);

// Largest N with model-exact p_late <= delta, by MaxStreamsWithin
// (admission.h): an invalid (t, delta) query returns 0. Returns
// FailedPrecondition unless the transfer model is a GammaTransferModel.
common::StatusOr<int> ExactMaxStreams(const ServiceTimeModel& model, double t,
                                      double delta, int n_cap = 4096);

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_EXACT_TAIL_H_
