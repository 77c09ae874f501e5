// Textual rare-event estimation specification, for CLI flags and config
// files (the importance-sampling mirror of fault/fault_spec.h).
//
// A spec string is a ','-separated list of key=value pairs:
//
//   streams=N            concurrent streams (0 = caller's default, e.g.
//                        the admission limit video_server_sim derived)
//   rounds=R             tilted rounds per replication (default 20000)
//   reps=K               independent replications (default 8)
//   seed=S               base seed; replication r uses SubstreamSeed(S, r)
//   m=M                  stream-lifetime rounds for p_error (default 1200)
//   g=G                  tolerated glitches per lifetime (default 12)
//   theta=X|auto         tilt parameter in 1/seconds; "auto" derives the
//                        analytic Chernoff minimizer (default)
//   confidence=C         two-sided CI level in (0, 1)
//
// Example (the deep-tail golden's configuration):
//   --rare-event="streams=30,rounds=20000,reps=8,seed=42"
//
// The parser owns syntax, duplicates, and representability (finite
// doubles, in-range integers); the checks that need the sampler's
// configuration (theta < theta_max, no auto tilt under FCFS) and the
// confidence range are deferred to ImportanceSampler::Create and the
// estimators, so the CLI and the programmatic API reject identical inputs
// identically.
#ifndef ZONESTREAM_SIM_RARE_EVENT_SPEC_H_
#define ZONESTREAM_SIM_RARE_EVENT_SPEC_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/importance_sampling.h"

namespace zonestream::sim {

// A parsed rare-event estimation request: which workload point to
// estimate (streams, lifetime m/g), how hard to sample (rounds, reps,
// seed), and the ImportanceSamplingOptions tuning the estimator itself.
struct RareEventSpec {
  int streams = 0;  // 0 = caller decides (admission limit)
  int rounds_per_replication = 20000;
  int replications = 8;
  uint64_t base_seed = 42;
  int lifetime_rounds = 1200;   // m in P[>= g glitches in m rounds]
  int tolerated_glitches = 12;  // g
  ImportanceSamplingOptions options;
};

// Parses a spec string. The empty string yields the default spec.
common::StatusOr<RareEventSpec> ParseRareEventSpec(const std::string& text);

// Renders a spec back to the parseable textual form (round-trips through
// ParseRareEventSpec up to float formatting).
std::string FormatRareEventSpec(const RareEventSpec& spec);

}  // namespace zonestream::sim

#endif  // ZONESTREAM_SIM_RARE_EVENT_SPEC_H_
