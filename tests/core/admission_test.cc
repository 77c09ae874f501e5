#include "core/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "disk/presets.h"

namespace zonestream::core {
namespace {

ServiceTimeModel TestModel() {
  auto model = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3,
      100e3 * 100e3);
  ZS_CHECK(model.ok());
  return *std::move(model);
}

TEST(MaxStreamsTest, LateProbabilityConsistentWithBound) {
  const ServiceTimeModel model = TestModel();
  const double delta = 0.01;
  const int n_max = MaxStreamsByLateProbability(model, 1.0, delta);
  ASSERT_GT(n_max, 0);
  EXPECT_LE(model.LateBound(n_max, 1.0).bound, delta);
  EXPECT_GT(model.LateBound(n_max + 1, 1.0).bound, delta);
}

TEST(MaxStreamsTest, MonotoneInTolerance) {
  const ServiceTimeModel model = TestModel();
  int prev = 0;
  for (double delta : {0.0001, 0.001, 0.01, 0.05, 0.2}) {
    const int n_max = MaxStreamsByLateProbability(model, 1.0, delta);
    EXPECT_GE(n_max, prev) << delta;
    prev = n_max;
  }
}

TEST(MaxStreamsTest, MonotoneInRoundLength) {
  const ServiceTimeModel model = TestModel();
  int prev = 0;
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    const int n_max = MaxStreamsByLateProbability(model, t, 0.01);
    EXPECT_GT(n_max, prev) << t;
    prev = n_max;
  }
}

TEST(MaxStreamsTest, LongerRoundsAmortizeOverheadBetter) {
  // Streams-per-second of round: longer rounds admit more than
  // proportionally (seek/rotation overhead amortizes).
  const ServiceTimeModel model = TestModel();
  const int at_1s = MaxStreamsByLateProbability(model, 1.0, 0.01);
  const int at_4s = MaxStreamsByLateProbability(model, 4.0, 0.01);
  EXPECT_GT(at_4s, 4 * at_1s / 2);  // far more than half the linear scaling
}

TEST(MaxStreamsTest, ZeroWhenImpossible) {
  const ServiceTimeModel model = TestModel();
  // A 10 ms round cannot even fit one request's worst-case seek.
  EXPECT_EQ(MaxStreamsByLateProbability(model, 0.01, 0.01), 0);
}

TEST(MaxStreamsTest, InvalidQueriesReturnStructuredSentinel) {
  // Invalid (t, delta) queries are operator input errors, not programmer
  // errors: ValidateAdmissionQuery says why, and every search returns the
  // sentinel 0 for them.
  const ServiceTimeModel model = TestModel();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  for (double t : {0.0, -1.0, inf, nan}) {
    EXPECT_EQ(ValidateAdmissionQuery(t, 0.01),
              AdmissionQueryError::kInvalidRoundLength)
        << t;
    EXPECT_EQ(MaxStreamsByLateProbability(model, t, 0.01), 0) << t;
  }
  for (double delta : {0.0, -0.5, nan}) {
    EXPECT_EQ(ValidateAdmissionQuery(1.0, delta),
              AdmissionQueryError::kInvalidTolerance)
        << delta;
    EXPECT_EQ(MaxStreamsByLateProbability(model, 1.0, delta), 0) << delta;
  }
  for (double delta : {1.0, 2.0, inf}) {
    EXPECT_EQ(ValidateAdmissionQuery(1.0, delta),
              AdmissionQueryError::kVacuousTolerance)
        << delta;
    EXPECT_EQ(MaxStreamsByLateProbability(model, 1.0, delta), 0) << delta;
  }
  EXPECT_EQ(ValidateAdmissionQuery(1.0, 0.01), AdmissionQueryError::kOk);
  EXPECT_EQ(MaxStreamsByLateProbability(model, 1.0, 0.01), 26);

  EXPECT_EQ(MaxStreamsByGlitchRate(model, 0.0, 1200, 12, 0.01), 0);
  EXPECT_EQ(MaxStreamsByGlitchRate(model, 1.0, 1200, 12, 1.5), 0);
  EXPECT_EQ(MaxStreamsByLateProbabilityDegraded(model, -1.0, 0.01, 2), 0);
  EXPECT_EQ(MaxStreamsByLateProbabilityDegraded(model, 1.0, nan, 2), 0);
}

TEST(MaxStreamsWithinTest, FirstViolationEndsTheSearch) {
  // p(n) = values[n - 1]: the search admits the longest prefix within
  // delta, even when a later value would pass again, and a NaN value is
  // a violation.
  std::vector<double> values = {0.001, 0.002, 0.02, 0.003, 0.5};
  int calls = 0;
  const auto recorded = [&] {
    return [&](int n) {
      ++calls;
      return values[n - 1];
    };
  };
  EXPECT_EQ(MaxStreamsWithin(1.0, 0.01, 5, recorded), 2);
  EXPECT_EQ(calls, 3);  // stops at the first violation
  EXPECT_EQ(MaxStreamsWithin(1.0, 0.0005, 5, recorded), 0);
  EXPECT_EQ(MaxStreamsWithin(1.0, 0.9, 5, recorded), 5);
  EXPECT_EQ(MaxStreamsWithin(1.0, 0.9, 3, recorded), 3);  // n_cap binds
  values[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MaxStreamsWithin(1.0, 0.9, 5, recorded), 1);
}

TEST(MaxStreamsWithinTest, InvalidQueryNeverBuildsTheEngine) {
  // The engine factory runs only for a valid query, so engine state that
  // rejects a bad t (LateBoundScan, SncEngine) is never built for one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  int built = 0;
  const auto factory = [&built] {
    ++built;
    return [](int) { return 0.0; };
  };
  for (double t : {0.0, -1.0, inf, nan}) {
    EXPECT_EQ(MaxStreamsWithin(t, 0.01, 10, factory), 0) << t;
  }
  for (double delta : {0.0, nan, 1.0, inf}) {
    EXPECT_EQ(MaxStreamsWithin(1.0, delta, 10, factory), 0) << delta;
  }
  EXPECT_EQ(built, 0);
  EXPECT_EQ(MaxStreamsWithin(1.0, 0.01, 10, factory), 10);
  EXPECT_EQ(built, 1);
}

TEST(MaxStreamsTest, GlitchRateConsistentWithBound) {
  const ServiceTimeModel model = TestModel();
  const GlitchModel glitch_model(&model);
  const double epsilon = 0.01;
  const int n_max = MaxStreamsByGlitchRate(model, 1.0, 1200, 12, epsilon);
  ASSERT_GT(n_max, 0);
  EXPECT_LE(glitch_model.ErrorBound(n_max, 1.0, 1200, 12), epsilon);
  EXPECT_GT(glitch_model.ErrorBound(n_max + 1, 1.0, 1200, 12), epsilon);
}

TEST(MaxStreamsTest, GlitchCriterionAdmitsMoreThanPerRoundCriterion) {
  // Tolerating 1% of rounds with glitches per stream is weaker than
  // requiring 99% of rounds to be fully on time (§4: 28 vs 26).
  const ServiceTimeModel model = TestModel();
  EXPECT_GT(MaxStreamsByGlitchRate(model, 1.0, 1200, 12, 0.01),
            MaxStreamsByLateProbability(model, 1.0, 0.01));
}

TEST(AdmissionTableTest, BuildValidation) {
  const ServiceTimeModel model = TestModel();
  EXPECT_FALSE(AdmissionTable::Build(model,
                                     AdmissionCriterion::kLateProbability,
                                     0.0, {0.01})
                   .ok());
  EXPECT_FALSE(AdmissionTable::Build(model,
                                     AdmissionCriterion::kLateProbability,
                                     1.0, {})
                   .ok());
  EXPECT_FALSE(AdmissionTable::Build(model,
                                     AdmissionCriterion::kLateProbability,
                                     1.0, {0.1, 0.01})
                   .ok());  // not ascending
  EXPECT_FALSE(AdmissionTable::Build(model,
                                     AdmissionCriterion::kLateProbability,
                                     1.0, {0.0, 0.01})
                   .ok());
  EXPECT_FALSE(
      AdmissionTable::Build(model, AdmissionCriterion::kGlitchRate, 1.0,
                            {0.01}, /*m=*/0, /*g=*/12)
          .ok());
}

TEST(AdmissionTableTest, BuildRejectsWhatTheSearchRejects) {
  // Build checks (t, tolerance) with the searches' own rule. A NaN round
  // length used to abort in LateBoundScan, an infinite one built a row at
  // n_cap, and a NaN tolerance slipped past the range check into a row at
  // n_cap.
  const ServiceTimeModel model = TestModel();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {nan, inf, -1.0}) {
    const auto table = AdmissionTable::Build(
        model, AdmissionCriterion::kLateProbability, t, {0.01});
    ASSERT_FALSE(table.ok()) << t;
    EXPECT_EQ(table.status().code(), common::StatusCode::kInvalidArgument);
  }
  for (const std::vector<double>& tolerances :
       {std::vector<double>{nan}, std::vector<double>{0.001, nan, 0.01},
        std::vector<double>{0.01, 1.0}}) {
    const auto table = AdmissionTable::Build(
        model, AdmissionCriterion::kGlitchRate, 1.0, tolerances, 1200, 12);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(AdmissionTableTest, RowsMatchDirectComputation) {
  const ServiceTimeModel model = TestModel();
  const std::vector<double> tolerances = {0.001, 0.01, 0.05};
  const auto table =
      AdmissionTable::Build(model, AdmissionCriterion::kLateProbability, 1.0,
                            tolerances);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows().size(), 3u);
  for (size_t i = 0; i < tolerances.size(); ++i) {
    EXPECT_EQ(table->rows()[i].n_max,
              MaxStreamsByLateProbability(model, 1.0, tolerances[i]))
        << i;
  }
}

TEST(AdmissionTableTest, LookupPicksStrictestSatisfiedRow) {
  const ServiceTimeModel model = TestModel();
  const auto table = AdmissionTable::Build(
      model, AdmissionCriterion::kLateProbability, 1.0, {0.001, 0.01, 0.05});
  ASSERT_TRUE(table.ok());
  // Requested tolerance below the lowest row: nothing is guaranteed.
  EXPECT_EQ(table->MaxStreams(0.0001), 0);
  // Exactly a row.
  EXPECT_EQ(table->MaxStreams(0.01),
            MaxStreamsByLateProbability(model, 1.0, 0.01));
  // Between rows: the 0.01 row applies for a 0.02 request.
  EXPECT_EQ(table->MaxStreams(0.02),
            MaxStreamsByLateProbability(model, 1.0, 0.01));
  // Above all rows: the loosest row applies.
  EXPECT_EQ(table->MaxStreams(0.5),
            MaxStreamsByLateProbability(model, 1.0, 0.05));
}

// The `>=` boundary contract (admission.h): a request EXACTLY equal to a
// tabulated tolerance selects that row, at BOTH ends of the table; only a
// request strictly below every row returns 0. Pinned on every lookup
// path — table, snapshot, controller here; the service path is pinned in
// tests/service/. A hand-written table keeps the tolerances exact.
common::StatusOr<AdmissionTable> BoundaryTable() {
  return AdmissionTable::Deserialize(
      "zonestream-admission-table v1\n"
      "criterion late_probability\n"
      "round_length 1\n"
      "rows 3\n"
      "0.001 8\n"
      "0.01 14\n"
      "0.05 20\n");
}

TEST(AdmissionTableTest, BoundaryContractAtBothEnds) {
  const auto table = BoundaryTable();
  ASSERT_TRUE(table.ok());
  // Strict end: equality selects the strictest row; one ulp below it
  // selects nothing.
  EXPECT_EQ(table->MaxStreams(0.001), 8);
  EXPECT_EQ(table->MaxStreams(std::nextafter(0.001, 0.0)), 0);
  // Interior row: equality selects it; one ulp below falls to the
  // stricter neighbor.
  EXPECT_EQ(table->MaxStreams(0.01), 14);
  EXPECT_EQ(table->MaxStreams(std::nextafter(0.01, 0.0)), 8);
  // Loose end: equality selects the loosest row, and so does anything
  // above it.
  EXPECT_EQ(table->MaxStreams(0.05), 20);
  EXPECT_EQ(table->MaxStreams(std::nextafter(0.05, 1.0)), 20);
  EXPECT_EQ(table->MaxStreams(1.0), 20);
}

TEST(AdmissionTableSnapshotTest, BoundaryContractMatchesTable) {
  const auto table = BoundaryTable();
  ASSERT_TRUE(table.ok());
  const AdmissionTableSnapshot snapshot(*table);
  ASSERT_EQ(snapshot.size(), 3u);
  for (double tolerance :
       {std::nextafter(0.001, 0.0), 0.001, std::nextafter(0.001, 1.0),
        std::nextafter(0.01, 0.0), 0.01, 0.02, std::nextafter(0.05, 0.0),
        0.05, std::nextafter(0.05, 1.0), 1.0}) {
    EXPECT_EQ(snapshot.MaxStreams(tolerance), table->MaxStreams(tolerance))
        << tolerance;
  }
  EXPECT_EQ(snapshot.MaxStreams(0.001), 8);
  EXPECT_EQ(snapshot.MaxStreams(std::nextafter(0.001, 0.0)), 0);
  EXPECT_EQ(snapshot.MaxStreams(0.05), 20);
}

TEST(AdmissionTableTest, NanToleranceReturnsZeroOnEveryLookupPath) {
  // Regression: NaN used to fall through upper_bound to the loosest row
  // in AdmissionTable but return 0 from the snapshot's scan — the two
  // lookup paths disagreed on the same query. Both now treat NaN as
  // satisfying no row.
  const auto table = BoundaryTable();
  ASSERT_TRUE(table.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(table->MaxStreams(nan), 0);
  const AdmissionTableSnapshot snapshot(*table);
  EXPECT_EQ(snapshot.MaxStreams(nan), 0);
}

TEST(AdmissionTableSnapshotTest, EmptySnapshotReturnsZero) {
  const AdmissionTableSnapshot snapshot;
  EXPECT_EQ(snapshot.size(), 0u);
  EXPECT_EQ(snapshot.MaxStreams(0.01), 0);
  EXPECT_EQ(snapshot.MaxStreams(1.0), 0);
}

TEST(AdmissionTableTest, SerializeRoundTrip) {
  const ServiceTimeModel model = TestModel();
  const auto table =
      AdmissionTable::Build(model, AdmissionCriterion::kGlitchRate, 1.0,
                            {0.001, 0.01, 0.05}, /*m=*/1200, /*g=*/12);
  ASSERT_TRUE(table.ok());
  const std::string serialized = table->Serialize();
  const auto restored = AdmissionTable::Deserialize(serialized);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->criterion(), table->criterion());
  EXPECT_DOUBLE_EQ(restored->round_length(), table->round_length());
  ASSERT_EQ(restored->rows().size(), table->rows().size());
  for (size_t i = 0; i < table->rows().size(); ++i) {
    EXPECT_DOUBLE_EQ(restored->rows()[i].tolerance,
                     table->rows()[i].tolerance);
    EXPECT_EQ(restored->rows()[i].n_max, table->rows()[i].n_max);
  }
  // Behavioral equivalence: lookups agree everywhere.
  for (double tolerance : {0.0005, 0.001, 0.005, 0.02, 0.08}) {
    EXPECT_EQ(restored->MaxStreams(tolerance), table->MaxStreams(tolerance))
        << tolerance;
  }
}

TEST(AdmissionTableTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(AdmissionTable::Deserialize("").ok());
  EXPECT_FALSE(AdmissionTable::Deserialize("not-a-table v1\n").ok());
  EXPECT_FALSE(
      AdmissionTable::Deserialize("zonestream-admission-table v2\n").ok());
  // Wrong criterion.
  EXPECT_FALSE(AdmissionTable::Deserialize(
                   "zonestream-admission-table v1\ncriterion foo\n")
                   .ok());
  // Truncated rows.
  EXPECT_FALSE(AdmissionTable::Deserialize(
                   "zonestream-admission-table v1\n"
                   "criterion glitch_rate\nround_length 1\nrows 2\n"
                   "0.01 26\n")
                   .ok());
  // Non-ascending tolerances.
  EXPECT_FALSE(AdmissionTable::Deserialize(
                   "zonestream-admission-table v1\n"
                   "criterion glitch_rate\nround_length 1\nrows 2\n"
                   "0.05 26\n0.01 24\n")
                   .ok());
}

}  // namespace
}  // namespace zonestream::core
