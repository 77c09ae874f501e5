#include "core/late_bound_scan.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "disk/presets.h"

namespace zonestream::core {
namespace {

constexpr double kRound = 1.0;

ServiceTimeModel MultiZoneModel() {
  auto model = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

// The paper's §3.1 single-zone worked example (Table 1 transfer moments).
ServiceTimeModel SingleZoneModel() {
  auto model = ServiceTimeModel::FromTransferMoments(
      disk::QuantumViking2100Seek(), 6720, 8.34e-3, 0.02174, 0.00011815);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

// Warm-started and cold scans minimize the same convex exponent; the
// warm path's relaxed x-tolerance sits in the quadratically flat part of
// the exponent, so the *bounds* must agree to 1e-12.
void ExpectWarmMatchesCold(const ServiceTimeModel& model) {
  LateBoundScan warm(&model, kRound, /*warm_start=*/true);
  LateBoundScan cold(&model, kRound, /*warm_start=*/false);
  for (int n = 1; n <= 64; ++n) {
    const ChernoffResult w = warm.LateBound(n);
    const ChernoffResult c = cold.LateBound(n);
    EXPECT_NEAR(w.bound, c.bound, 1e-12) << "n=" << n;
  }
}

TEST(LateBoundScanTest, WarmMatchesColdMultiZone) {
  ExpectWarmMatchesCold(MultiZoneModel());
}

TEST(LateBoundScanTest, WarmMatchesColdSingleZone) {
  ExpectWarmMatchesCold(SingleZoneModel());
}

TEST(LateBoundScanTest, ColdScanMatchesDirectModelEvaluation) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound, /*warm_start=*/false);
  for (int n = 1; n <= 40; ++n) {
    const ChernoffResult via_scan = scan.LateBound(n);
    const ChernoffResult direct = model.LateBound(n, kRound);
    // The scan factors the exponent as θ·SEEK(n) + n·(rot+transfer) while
    // the direct path sums n·rot + n·transfer separately, so evaluations
    // differ in the last ulp. Near the minimum the exponent is
    // quadratically flat, so that ulp translates into a relatively large
    // θ* wobble but an O(1e-15) bound difference.
    EXPECT_NEAR(via_scan.bound, direct.bound, 1e-12) << "n=" << n;
    EXPECT_NEAR(via_scan.theta_star, direct.theta_star,
                1e-5 * (1.0 + direct.theta_star))
        << "n=" << n;
  }
}

TEST(LateBoundScanTest, ZeroStreamsNeverLate) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound);
  EXPECT_DOUBLE_EQ(scan.LateBound(0).bound, 0.0);
}

TEST(LateBoundScanTest, OutOfOrderEvaluationIsStillCorrect) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound);
  // Descending and repeated n: hints are then always "stale", which may
  // only cost the fallback, never accuracy.
  for (int n : {40, 26, 26, 8, 1, 64}) {
    const double direct = model.LateBound(n, kRound).bound;
    EXPECT_NEAR(scan.LateBound(n).bound, direct, 1e-12) << "n=" << n;
  }
}

TEST(LateBoundScanTest, WarmScanIsMonotoneInN) {
  const ServiceTimeModel model = MultiZoneModel();
  LateBoundScan scan(&model, kRound);
  double prev = 0.0;
  for (int n = 1; n <= 64; ++n) {
    const double bound = scan.LateBound(n).bound;
    EXPECT_GE(bound, prev - 1e-12) << "n=" << n;
    prev = bound;
  }
}

TEST(AdmissionWarmStartTest, MaxStreamsAgreesWithColdScan) {
  const ServiceTimeModel model = MultiZoneModel();
  for (double delta : {0.001, 0.01, 0.05, 0.1}) {
    const int warm_limit =
        MaxStreamsByLateProbability(model, kRound, delta);
    // Cold reference: first n whose direct bound exceeds delta.
    int cold_limit = 0;
    while (model.LateBound(cold_limit + 1, kRound).bound <= delta) {
      ++cold_limit;
    }
    EXPECT_EQ(warm_limit, cold_limit) << "delta=" << delta;
  }
}

TEST(AdmissionWarmStartTest, BuildWarmAndColdRowsIdentical) {
  // Each row of the warm shared scan is the limit the cold, direct
  // evaluations give: b_late(n_max) or p_error(n_max) stays within the
  // row's tolerance and n_max + 1 breaks it.
  const ServiceTimeModel model = MultiZoneModel();
  const GlitchModel glitch_model(&model);
  const std::vector<double> tolerances = {0.001, 0.01, 0.05, 0.1};
  for (auto criterion : {AdmissionCriterion::kLateProbability,
                         AdmissionCriterion::kGlitchRate}) {
    const auto quality = [&](int n) {
      return criterion == AdmissionCriterion::kLateProbability
                 ? model.LateBound(n, kRound).bound
                 : glitch_model.ErrorBound(n, kRound, 1200, 12);
    };
    auto table =
        AdmissionTable::Build(model, criterion, kRound, tolerances, 1200, 12);
    ASSERT_TRUE(table.ok());
    ASSERT_EQ(table->rows().size(), tolerances.size());
    for (size_t i = 0; i < tolerances.size(); ++i) {
      const AdmissionTableRow& row = table->rows()[i];
      EXPECT_EQ(row.tolerance, tolerances[i]);
      ASSERT_GT(row.n_max, 0) << "row " << i;
      EXPECT_LE(quality(row.n_max), tolerances[i]) << "row " << i;
      EXPECT_GT(quality(row.n_max + 1), tolerances[i]) << "row " << i;
    }
  }
}

TEST(AdmissionWarmStartTest, BuildIdenticalAcrossThreadCounts) {
  const ServiceTimeModel model = MultiZoneModel();
  const std::vector<double> tolerances = {0.001, 0.01, 0.05, 0.1};

  common::ThreadPool one(1);
  auto reference = AdmissionTable::Build(
      model, AdmissionCriterion::kGlitchRate, kRound, tolerances, 1200, 12,
      {.pool = &one});
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    common::ThreadPool pool(threads);
    auto table = AdmissionTable::Build(
        model, AdmissionCriterion::kGlitchRate, kRound, tolerances, 1200,
        12, {.pool = &pool});
    ASSERT_TRUE(table.ok());
    ASSERT_EQ(table->rows().size(), reference->rows().size());
    for (size_t i = 0; i < table->rows().size(); ++i) {
      EXPECT_EQ(table->rows()[i].n_max, reference->rows()[i].n_max)
          << threads << " threads, row " << i;
    }
  }
}

TEST(AdmissionWarmStartTest, SingleZoneExampleLimitUnchanged) {
  // §3.1 worked example: the warm-started scan must still reproduce the
  // paper's N_max = 26 at delta = 0.01.
  const ServiceTimeModel model = SingleZoneModel();
  EXPECT_EQ(MaxStreamsByLateProbability(model, kRound, 0.01), 26);
}

}  // namespace
}  // namespace zonestream::core
