#include "core/snc.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/multiclass.h"
#include "disk/presets.h"

namespace zonestream::core {
namespace {

ServiceTimeModel Table1Model() {
  auto model = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

TEST(SncEngineTest, RoundDelayBoundMatchesChernoffValue) {
  // At horizon 1 the SNC delay bound is the Legendre transform of the
  // same round CGF the Chernoff machinery minimizes; the two independent
  // optimizer stacks must land on the same value.
  const ServiceTimeModel model = Table1Model();
  const SncEngine engine(model, 1.0);
  for (int n : {10, 20, 26, 30}) {
    const SncBoundResult snc = engine.RoundDelayBound(n);
    const double chernoff = model.LateBound(n, 1.0).bound;
    ASSERT_TRUE(snc.converged) << n;
    if (chernoff < 1.0) {
      EXPECT_NEAR(snc.bound, chernoff, 1e-6 * chernoff + 1e-12) << n;
      EXPECT_GT(snc.theta_star, 0.0) << n;
    } else {
      EXPECT_EQ(snc.bound, 1.0) << n;
    }
  }
}

TEST(SncEngineTest, ZeroStreamsNeverLate) {
  const SncEngine engine(Table1Model(), 1.0);
  const SncBoundResult result = engine.RoundDelayBound(0);
  EXPECT_EQ(result.bound, 0.0);
  EXPECT_TRUE(result.converged);
}

TEST(SncEngineTest, EnvelopeDecomposesTheRoundCgf) {
  // Arrival envelope + service deficit must reassemble the model's full
  // round log-MGF: n·rho(θ) + σ_seek(n, θ) == LogMgf(n, θ).
  const ServiceTimeModel model = Table1Model();
  const SncEngine engine(model, 1.0);
  const SncEnvelope envelope = EnvelopeForModel(model);
  EXPECT_EQ(envelope.sigma, 0.0);
  EXPECT_GT(envelope.theta_max, 0.0);
  for (int n : {1, 12, 27}) {
    for (double theta : {0.5, 5.0, 25.0}) {
      EXPECT_NEAR(engine.ArrivalEnvelope(n, theta) +
                      engine.ServiceDeficit(n, theta),
                  model.LogMgf(n, theta), 1e-9)
          << "n=" << n << " theta=" << theta;
      EXPECT_NEAR(engine.ArrivalEnvelope(n, theta),
                  n * envelope.rho(theta), 1e-12)
          << n;
    }
  }
}

TEST(SncEngineTest, CumulativeLatenessBoundBasics) {
  const SncEngine engine(Table1Model(), 1.0);
  const int n = 24;  // below N_max: negative drift exists
  // More slack -> smaller bound; horizon 1 at slack 0 equals the
  // one-round delay bound at t (the union over one start).
  const SncBoundResult one_round = engine.RoundDelayBound(n);
  const SncBoundResult h1 = engine.CumulativeLatenessBound(n, 0.0, 1);
  ASSERT_TRUE(h1.converged);
  EXPECT_NEAR(h1.bound, one_round.bound, 1e-6 * one_round.bound + 1e-12);

  double prev = 2.0;
  for (double slack : {0.0, 0.05, 0.1, 0.2}) {
    const double bound = engine.CumulativeLatenessBound(n, slack).bound;
    EXPECT_LT(bound, prev) << slack;
    prev = bound;
  }

  // Longer horizons accumulate more union-bound mass, and the infinite
  // horizon dominates every finite one.
  const double h4 = engine.CumulativeLatenessBound(n, 0.1, 4).bound;
  const double h16 = engine.CumulativeLatenessBound(n, 0.1, 16).bound;
  const double unbounded = engine.CumulativeLatenessBound(n, 0.1).bound;
  EXPECT_LE(h4, h16 + 1e-15);
  EXPECT_LE(h16, unbounded + 1e-15);

  // Overloaded system (positive drift at every θ): the infinite-horizon
  // bound degenerates to the trivial 1.
  EXPECT_EQ(engine.CumulativeLatenessBound(60, 0.1).bound, 1.0);
}

TEST(SncMaxStreamsTest, AgreesWithChernoffWithinOneStream) {
  const ServiceTimeModel model = Table1Model();
  for (double delta : {0.05, 0.01, 1e-3, 1e-4, 1e-6}) {
    const int snc = SncMaxStreams(model, 1.0, delta);
    const int chernoff = MaxStreamsByLateProbability(model, 1.0, delta);
    EXPECT_NEAR(snc, chernoff, 1) << delta;
  }
}

TEST(SncMaxStreamsTest, InvalidQueriesReturnStructuredSentinel) {
  // ValidateAdmissionQuery names the reason; the search returns 0 before
  // building an SncEngine, whose constructor would reject the bad t.
  const ServiceTimeModel model = Table1Model();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {0.0, -1.0, inf, nan}) {
    EXPECT_EQ(ValidateAdmissionQuery(t, 0.01),
              AdmissionQueryError::kInvalidRoundLength);
    EXPECT_EQ(SncMaxStreams(model, t, 0.01), 0) << t;
  }
  EXPECT_EQ(ValidateAdmissionQuery(1.0, nan),
            AdmissionQueryError::kInvalidTolerance);
  EXPECT_EQ(SncMaxStreams(model, 1.0, nan), 0);
  EXPECT_EQ(ValidateAdmissionQuery(1.0, 1.0),
            AdmissionQueryError::kVacuousTolerance);
  EXPECT_EQ(SncMaxStreams(model, 1.0, 1.0), 0);
  EXPECT_EQ(SncMaxStreams(model, 1.0, 1.5), 0);
}

TEST(SncMixedTest, CrossChecksMultiClassLateBound) {
  // The mixed SNC exponent composes per-class envelopes; it must agree
  // with MultiClassServiceModel::LateBound (same CGF, Brent optimizer).
  auto model = MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      {{"video", 200e3, 1e10}, {"audio", 16e3, 4e6}});
  ASSERT_TRUE(model.ok());
  for (const ClassCounts& counts :
       {ClassCounts{10, 0}, ClassCounts{0, 40}, ClassCounts{12, 30},
        ClassCounts{20, 10}}) {
    const SncBoundResult snc = SncRoundDelayBoundMixed(*model, counts, 1.0);
    const double reference = model->LateBound(counts, 1.0).bound;
    if (reference < 1.0) {
      EXPECT_NEAR(snc.bound, reference, 1e-6 * reference + 1e-12)
          << counts[0] << "," << counts[1];
    } else {
      EXPECT_EQ(snc.bound, 1.0);
    }
  }
  EXPECT_EQ(SncRoundDelayBoundMixed(*model, {0, 0}, 1.0).bound, 0.0);
}

TEST(SncMixedTest, PerClassEnvelopesReassembleTheMixCgf) {
  auto model = MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      {{"video", 200e3, 1e10}, {"audio", 16e3, 4e6}});
  ASSERT_TRUE(model.ok());
  const std::vector<SncEnvelope> envelopes = EnvelopesForClasses(*model);
  ASSERT_EQ(envelopes.size(), 2u);
  const ClassCounts counts = {7, 13};
  for (double theta : {0.5, 5.0, 20.0}) {
    const double composed = 7 * envelopes[0].rho(theta) +
                            13 * envelopes[1].rho(theta) +
                            theta * model->SeekBound(counts);
    EXPECT_NEAR(composed, model->LogMgf(counts, theta), 1e-9) << theta;
  }
}

}  // namespace
}  // namespace zonestream::core
