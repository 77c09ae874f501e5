#include "core/admission.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "core/late_bound_scan.h"

namespace zonestream::core {

namespace {

// p(n) of one admission criterion, for n = 1, 2, ... in order: b_late(n, t)
// for the per-round criterion (eq. 3.1.7) or p_error(n, t, m, g) for the
// glitch-rate criterion (eq. 3.3.6). Both are nondecreasing in n. The warm
// LateBoundScan carries θ* from n - 1 to n, and p_error reuses the running
// sum of b_late(k, t) across n instead of recomputing the O(n) inner loop,
// so a search costs O(N_max) Chernoff minimizations in total.
auto CriterionQuality(const ServiceTimeModel* model, double t,
                      AdmissionCriterion criterion, int m, int g) {
  return [scan = LateBoundScan(model, t), criterion, m, g,
          late_bound_sum = 0.0](int n) mutable {
    const double b_late = scan.LateBound(n).bound;
    if (criterion == AdmissionCriterion::kLateProbability) return b_late;
    late_bound_sum += b_late;
    const double b_glitch =
        std::fmin(late_bound_sum / static_cast<double>(n), 1.0);
    return GlitchModel::ErrorBoundForGlitchProbability(b_glitch, m, g);
  };
}

}  // namespace

AdmissionQueryError ValidateAdmissionQuery(double t, double delta) {
  // NaN comparisons are all false, so NaN t / delta fall through to the
  // negated checks below — classify explicitly first.
  if (!(t > 0.0) || !std::isfinite(t)) {
    return AdmissionQueryError::kInvalidRoundLength;
  }
  if (std::isnan(delta) || delta <= 0.0) {
    return AdmissionQueryError::kInvalidTolerance;
  }
  if (delta >= 1.0) return AdmissionQueryError::kVacuousTolerance;
  return AdmissionQueryError::kOk;
}

int MaxStreamsByLateProbability(const ServiceTimeModel& model, double t,
                                double delta, int n_cap) {
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return CriterionQuality(&model, t, AdmissionCriterion::kLateProbability,
                            0, 0);
  });
}

int MaxStreamsByGlitchRate(const ServiceTimeModel& model, double t, int m,
                           int g, double epsilon, int n_cap) {
  ZS_CHECK_GT(m, 0);
  ZS_CHECK_GE(g, 0);
  return MaxStreamsWithin(t, epsilon, n_cap, [&] {
    return CriterionQuality(&model, t, AdmissionCriterion::kGlitchRate, m, g);
  });
}

int MaxStreamsByLateProbabilityDegraded(const ServiceTimeModel& model,
                                        double t, double delta,
                                        int repair_requests, int n_cap) {
  ZS_CHECK_GE(repair_requests, 0);
  // A survivor's worst round carries 2N + R requests (own phase, the
  // failed disk's phase, and the repair throttle share). LateBoundScan is
  // warm-start-correct for any query order, including this stride-2
  // sequence.
  return MaxStreamsWithin(t, delta, n_cap, [&] {
    return [scan = LateBoundScan(&model, t), repair_requests](int n) mutable {
      return scan.LateBound(2 * n + repair_requests).bound;
    };
  });
}

common::StatusOr<AdmissionTable> AdmissionTable::Build(
    const ServiceTimeModel& model, AdmissionCriterion criterion, double t,
    std::vector<double> tolerances, int m, int g,
    const AdmissionBuildOptions& options) {
  if (tolerances.empty()) {
    return common::Status::InvalidArgument("tolerances must be non-empty");
  }
  if (!std::is_sorted(tolerances.begin(), tolerances.end())) {
    return common::Status::InvalidArgument("tolerances must be ascending");
  }
  // The searches' own rule, so no row can come back as a sentinel.
  for (const double tolerance : tolerances) {
    const AdmissionQueryError error = ValidateAdmissionQuery(t, tolerance);
    if (error == AdmissionQueryError::kInvalidRoundLength) {
      return common::Status::InvalidArgument(
          "round length must be positive and finite");
    }
    if (error != AdmissionQueryError::kOk) {
      return common::Status::InvalidArgument("tolerances must lie in (0, 1)");
    }
  }
  if (criterion == AdmissionCriterion::kGlitchRate && (m <= 0 || g < 0)) {
    return common::Status::InvalidArgument(
        "glitch-rate criterion requires m > 0 and g >= 0");
  }
  if (options.n_cap <= 0) {
    return common::Status::InvalidArgument("n_cap must be positive");
  }

  // The scans below charge the configured seek term; equidistant mode is
  // a field copy, so the extra model costs nothing in the default case.
  const ServiceTimeModel effective = model.WithSeekBound(options.seek_bound);

  // The per-n quality values do not depend on the tolerance, so ONE
  // warm-started serial search at the loosest tolerance records every
  // value a row needs: it stops at that row's first violation, which no
  // stricter row gets past. Each row is then the same search over the
  // recorded values, cheap and embarrassingly parallel, and bit-identical
  // at every thread count because it is a pure function of those values.
  std::vector<double> values;
  MaxStreamsWithin(t, tolerances.back(), options.n_cap, [&] {
    return [&values, quality = CriterionQuality(&effective, t, criterion, m,
                                                g)](int n) mutable {
      values.push_back(quality(n));
      return values.back();
    };
  });
  std::vector<AdmissionTableRow> rows(tolerances.size());
  common::ParallelFor(
      static_cast<int64_t>(tolerances.size()),
      [&rows, &tolerances, &values, t](int64_t i) {
        rows[i].tolerance = tolerances[i];
        rows[i].n_max = MaxStreamsWithin(
            t, tolerances[i], static_cast<int>(values.size()),
            [&values] { return [&values](int n) { return values[n - 1]; }; });
      },
      options.pool);
  return AdmissionTable(criterion, t, std::move(rows));
}

AdmissionTableSnapshot::AdmissionTableSnapshot(const AdmissionTable& table)
    : criterion_(table.criterion()), round_length_s_(table.round_length()) {
  tolerances_.reserve(table.rows().size());
  limits_.reserve(table.rows().size());
  for (const AdmissionTableRow& row : table.rows()) {
    tolerances_.push_back(row.tolerance);
    limits_.push_back(row.n_max);
  }
}

int AdmissionTable::MaxStreams(double tolerance) const {
  // A NaN request satisfies no row's contract. Without this guard the
  // upper_bound comparator (all comparisons false for NaN) would land on
  // end() and hand back the LOOSEST row's limit — while the snapshot's
  // manual binary search returns 0. Both paths return 0; the boundary
  // tests pin the agreement.
  if (std::isnan(tolerance)) return 0;
  // Loosest tabulated row that does not exceed the requested tolerance:
  // rows are ascending in tolerance (and, by monotonicity, in n_max), so
  // take the last row with row.tolerance <= tolerance — the `>=`
  // contract (equality selects the row, including the smallest row).
  const auto first_above = std::upper_bound(
      rows_.begin(), rows_.end(), tolerance,
      [](double requested, const AdmissionTableRow& row) {
        return requested < row.tolerance;
      });
  return first_above == rows_.begin() ? 0 : std::prev(first_above)->n_max;
}

std::string AdmissionTable::Serialize() const {
  std::string out = "zonestream-admission-table v1\n";
  out += "criterion ";
  out += (criterion_ == AdmissionCriterion::kLateProbability)
             ? "late_probability"
             : "glitch_rate";
  out += "\n";
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "round_length %.17g\n",
                round_length_s_);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "rows %zu\n", rows_.size());
  out += buffer;
  for (const AdmissionTableRow& row : rows_) {
    std::snprintf(buffer, sizeof(buffer), "%.17g %d\n", row.tolerance,
                  row.n_max);
    out += buffer;
  }
  return out;
}

common::StatusOr<AdmissionTable> AdmissionTable::Deserialize(
    const std::string& content) {
  std::istringstream stream(content);
  std::string header;
  std::string version;
  if (!(stream >> header >> version) ||
      header != "zonestream-admission-table" || version != "v1") {
    return common::Status::InvalidArgument(
        "not a v1 zonestream admission table");
  }
  std::string key;
  std::string criterion_name;
  if (!(stream >> key >> criterion_name) || key != "criterion") {
    return common::Status::InvalidArgument("missing criterion line");
  }
  AdmissionCriterion criterion;
  if (criterion_name == "late_probability") {
    criterion = AdmissionCriterion::kLateProbability;
  } else if (criterion_name == "glitch_rate") {
    criterion = AdmissionCriterion::kGlitchRate;
  } else {
    return common::Status::InvalidArgument("unknown criterion: '" +
                                           criterion_name + "'");
  }
  double round_length = 0.0;
  if (!(stream >> key >> round_length) || key != "round_length" ||
      !std::isfinite(round_length) || round_length <= 0.0) {
    return common::Status::InvalidArgument("missing/invalid round_length");
  }
  size_t row_count = 0;
  if (!(stream >> key >> row_count) || key != "rows" || row_count == 0 ||
      row_count > 100000) {
    return common::Status::InvalidArgument("missing/invalid row count");
  }
  std::vector<AdmissionTableRow> rows;
  rows.reserve(row_count);
  double previous_tolerance = 0.0;
  for (size_t i = 0; i < row_count; ++i) {
    AdmissionTableRow row;
    if (!(stream >> row.tolerance >> row.n_max)) {
      return common::Status::InvalidArgument(
          "truncated table: expected " + std::to_string(row_count) +
          " rows, got " + std::to_string(i));
    }
    // The isfinite check is load-bearing: a NaN tolerance compares false
    // against both bounds below and would otherwise slip through into a
    // table whose binary search misbehaves.
    if (!std::isfinite(row.tolerance) || row.tolerance <= previous_tolerance ||
        row.tolerance >= 1.0 || row.n_max < 0) {
      return common::Status::InvalidArgument(
          "invalid row " + std::to_string(i) +
          " (tolerances must be finite, ascending in (0,1), n_max >= 0)");
    }
    previous_tolerance = row.tolerance;
    rows.push_back(row);
  }
  return AdmissionTable(criterion, round_length, std::move(rows));
}

}  // namespace zonestream::core
