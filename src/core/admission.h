// Admission control (§2.3, §3.1.7, §3.3.6, §5).
//
// Given the analytic model, the admission limit is the largest
// multiprogramming level whose predicted service quality stays within the
// requested tolerance:
//   N_max^plate  = max{ N : b_late(N, t) <= delta }          (eq. 3.1.7)
//   N_max^perror = max{ N : p_error(N, t, M, g) <= epsilon } (eq. 3.3.6)
// Every engine's limit, these two included, is one call to the search
// MaxStreamsWithin below. §5 recommends precomputing these limits into a
// lookup table so run-time admission costs O(1); AdmissionTable and
// AdmissionTableSnapshot implement that scheme, and the run-time
// controllers (service::AdmissionService, MediaServer's phase admission)
// enforce its limits.
#ifndef ZONESTREAM_CORE_ADMISSION_H_
#define ZONESTREAM_CORE_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"

namespace zonestream::core {

// Structured reason for an admission query with no meaningful finite
// answer. Every N_max search (MaxStreamsWithin below, and through it the
// MaxStreams* family here and in baselines.h, saddlepoint.h, snc.h,
// exact_tail.h and multiclass.h) returns the sentinel 0 for such
// queries instead of crashing (t <= 0) or scanning to n_cap and reporting
// a misleading large N (delta >= 1, NaN tolerance).
enum class AdmissionQueryError {
  kOk = 0,
  // Round length t is not a positive finite number: no round ever
  // completes "on time", so no N is admissible.
  kInvalidRoundLength,
  // Tolerance is NaN or <= 0: no probability bound can satisfy it.
  kInvalidTolerance,
  // Tolerance >= 1: every N trivially satisfies P <= delta, so the scan
  // would run to n_cap and return a number that reflects the cap, not
  // the disk. Vacuous contracts are rejected rather than answered.
  kVacuousTolerance,
};

// Classifies an admission query: kOk iff t is positive and finite and
// delta lies in (0, 1). MaxStreamsWithin and AdmissionTable::Build apply
// exactly this classification.
AdmissionQueryError ValidateAdmissionQuery(double t, double delta);

// The one N_max search behind every admission limit (§5):
//   N_max = max{ n <= n_cap : p(k) <= delta for every k <= n },
// where p(n) is an engine's quality at multiprogramming level n (b_late,
// p_error, an estimate, ...). The search runs n = 1, 2, ... and stops at
// the first violation; a NaN p(n) counts as one. It validates (t, delta)
// first and returns the sentinel 0 for an invalid query before calling
// `make_quality`, so engine state that rejects a bad t (LateBoundScan,
// SncEngine) is only built for a valid one. `make_quality()` returns the
// callable p(int n) -> double, which is called once per n in ascending
// order and may carry state from one n to the next (warm starts, running
// sums). n_cap must be positive.
template <typename MakeQuality>
int MaxStreamsWithin(double t, double delta, int n_cap,
                     MakeQuality make_quality) {
  ZS_CHECK_GT(n_cap, 0);
  if (ValidateAdmissionQuery(t, delta) != AdmissionQueryError::kOk) return 0;
  auto quality = make_quality();
  int n_max = 0;
  while (n_max < n_cap && quality(n_max + 1) <= delta) ++n_max;
  return n_max;
}

// Largest N with b_late(N, t) <= delta (eq. 3.1.7); 0 if even N=1
// violates the tolerance or the query is invalid. The search warm-starts
// each Chernoff minimization from the previous candidate's θ*
// (LateBoundScan). `n_cap` guards against pathological configurations.
int MaxStreamsByLateProbability(const ServiceTimeModel& model, double t,
                                double delta, int n_cap = 4096);

// Largest N with p_error(N, t, M, g) <= epsilon (eq. 3.3.6), same
// contract as MaxStreamsByLateProbability.
int MaxStreamsByGlitchRate(const ServiceTimeModel& model, double t, int m,
                           int g, double epsilon, int n_cap = 4096);

// Degraded-mode admission bound for a rotating-parity array rebuilding a
// failed disk (ROADMAP item 1). While one disk of a RAID-5 array is down,
// every surviving disk serves in the worst round its own N stream reads
// PLUS up to N reconstruction reads standing in for the failed disk PLUS
// `repair_requests` throttled rebuild reads, all inside the same round of
// length t. The paper's per-disk Chernoff machinery applies unchanged to
// that inflated request count, so the safe level is the largest N with
//   b_late(2N + repair_requests, t) <= delta.
// Returns 0 when even N=1 violates the tolerance (the operator must pause
// repair or shed to zero). `repair_requests` may be 0 (degraded, repair
// paused). Repair reads are modeled with the same service-time
// distribution as stream reads; size repair reads near the mean fragment
// (RepairPolicy::read_bytes) to keep that faithful.
int MaxStreamsByLateProbabilityDegraded(const ServiceTimeModel& model,
                                        double t, double delta,
                                        int repair_requests,
                                        int n_cap = 4096);

// One row of the §5 lookup table.
struct AdmissionTableRow {
  double tolerance = 0.0;  // delta (p_late) or epsilon (p_error)
  int n_max = 0;
};

// Quality-of-service criterion for a precomputed table.
enum class AdmissionCriterion {
  kLateProbability,  // bound p_late per round (eq. 3.1.7)
  kGlitchRate,       // bound p_error over a stream's lifetime (eq. 3.3.6)
};

// Tuning knobs for AdmissionTable::Build. Results are bit-identical at
// every thread count because the per-n quality values are computed by one
// serial warm scan and each tolerance's row is a pure function of those
// shared values.
struct AdmissionBuildOptions {
  // Thread pool for the per-tolerance work; null uses the global pool.
  common::ThreadPool* pool = nullptr;
  // Upper limit on the candidate multiprogramming level.
  int n_cap = 4096;
  // Seek term charged by the scans: the paper's equidistant worst case
  // (default) or the Bachmat distributional bound (never looser; valid
  // under uniform random placement — see seek_bound_bachmat.h).
  SeekBoundKind seek_bound = SeekBoundKind::kEquidistant;
};

// Precomputed tolerance -> N_max lookup table (§5). The table only needs
// rebuilding when the disk configuration or workload statistics change.
class AdmissionTable {
 public:
  // Builds a table for the given tolerances (ascending, each in (0, 1))
  // at round length t (positive and finite). For kGlitchRate, `m` and `g`
  // define the stream-lifetime QoS contract; they are ignored for
  // kLateProbability.
  static common::StatusOr<AdmissionTable> Build(
      const ServiceTimeModel& model, AdmissionCriterion criterion, double t,
      std::vector<double> tolerances, int m = 0, int g = 0,
      const AdmissionBuildOptions& options = {});

  // N_max for the loosest tabulated row whose tolerance does not exceed
  // the request — i.e. the largest tabulated tolerance with
  // `tolerance >= row.tolerance`. The comparison is `>=`, not `>`: a
  // request EXACTLY equal to a tabulated tolerance selects that row, at
  // both ends of the table (a request equal to the smallest row returns
  // that row's limit, not 0). Returns 0 only when the request is
  // strictly below every tabulated row (no row enforces a contract at
  // least as strict as asked). AdmissionTableSnapshot::MaxStreams honors
  // the identical contract; boundary behavior is pinned by tests on both
  // paths.
  int MaxStreams(double tolerance) const;

  const std::vector<AdmissionTableRow>& rows() const { return rows_; }
  AdmissionCriterion criterion() const { return criterion_; }
  double round_length() const { return round_length_s_; }

  // Serializes the table to a small self-describing text format, so the
  // (model-evaluation) build step can run offline and ship only the table
  // to the serving hosts — the deployment §5 suggests. Stable across
  // versions of this library.
  std::string Serialize() const;

  // Parses a table produced by Serialize(). Rejects unknown versions,
  // malformed rows, and non-ascending tolerances.
  static common::StatusOr<AdmissionTable> Deserialize(
      const std::string& content);

 private:
  AdmissionTable(AdmissionCriterion criterion, double round_length_s,
                 std::vector<AdmissionTableRow> rows)
      : criterion_(criterion),
        round_length_s_(round_length_s),
        rows_(std::move(rows)) {}

  AdmissionCriterion criterion_;
  double round_length_s_;
  std::vector<AdmissionTableRow> rows_;  // ascending tolerance
};

// Immutable, flattened view of an AdmissionTable for lock-free serving
// fast paths (src/service/). The tolerance keys and limits live in two
// contiguous arrays (16 bytes per row, no row structs, no indirection),
// so a lookup is one cache-resident branchless-ish binary search; a
// whole deployment table (tens of rows) fits in a cache line or two.
//
// The object is deeply immutable after construction and therefore safe
// to read from any number of threads with no synchronization; the
// admission service publishes fresh snapshots through an RCU pointer
// swap when the table is rebuilt (docs/SERVICE.md).
class AdmissionTableSnapshot {
 public:
  // Flattens `table` (rows ascending in tolerance, as AdmissionTable
  // guarantees).
  explicit AdmissionTableSnapshot(const AdmissionTable& table);

  // Empty snapshot: every lookup returns 0.
  AdmissionTableSnapshot() = default;

  // Same `>=` contract as AdmissionTable::MaxStreams: the limit of the
  // largest tabulated tolerance <= `tolerance` (equality selects the
  // row), 0 when the request is strictly below every row.
  int MaxStreams(double tolerance) const {
    // Branch-light binary search for "first row with row.tolerance >
    // tolerance" over the flat key array.
    size_t lo = 0;
    size_t hi = tolerances_.size();
    while (lo < hi) {
      const size_t mid = lo + ((hi - lo) >> 1);
      if (tolerances_[mid] <= tolerance) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo == 0 ? 0 : limits_[lo - 1];
  }

  size_t size() const { return tolerances_.size(); }
  double tolerance_at(size_t i) const { return tolerances_[i]; }
  int32_t limit_at(size_t i) const { return limits_[i]; }
  AdmissionCriterion criterion() const { return criterion_; }
  double round_length() const { return round_length_s_; }

 private:
  AdmissionCriterion criterion_ = AdmissionCriterion::kLateProbability;
  double round_length_s_ = 0.0;
  std::vector<double> tolerances_;  // ascending keys
  std::vector<int32_t> limits_;     // limits_[i] = N_max of tolerances_[i]
};

}  // namespace zonestream::core

#endif  // ZONESTREAM_CORE_ADMISSION_H_
