// Cross-engine property test (ROADMAP item 2 acceptance): across every
// preset disk and a tolerance grid, the independent analytic engines
// must tell one consistent story:
//
//   * SNC and Chernoff N_max agree within +-1 stream (same Legendre
//     transform, disjoint optimizer stacks);
//   * the saddlepoint *estimate* admits at least as many streams as the
//     Chernoff *bound* (it has no bound slack to carry);
//   * every stochastic engine admits at least the deterministic worst
//     case;
//   * the Bachmat seek bound never admits fewer streams than the
//     equidistant one (min-clamp construction);
//   * every engine's p(n) is nondecreasing in n, which the one
//     first-violation search (MaxStreamsWithin) relies on;
//   * the model-exact tail lies under both bounds, Chernoff and Cantelli,
//     its limit is never below Chernoff's and within one of the
//     saddlepoint's, and the saddlepoint estimate stays within 5% of it
//     in the deep tail.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/baselines.h"
#include "core/exact_tail.h"
#include "core/glitch_model.h"
#include "core/late_bound_scan.h"
#include "core/saddlepoint.h"
#include "core/seek_bound_bachmat.h"
#include "core/service_time_model.h"
#include "core/snc.h"
#include "disk/presets.h"
#include "workload/size_distribution.h"

namespace zonestream::core {
namespace {

struct PresetCase {
  const char* name;
  disk::DiskGeometry geometry;
  disk::SeekTimeModel seek;
};

std::vector<PresetCase> Presets() {
  return {
      {"viking2100", disk::QuantumViking2100(), disk::QuantumViking2100Seek()},
      {"viking-1zone", disk::SingleZoneViking(),
       disk::QuantumViking2100Seek()},
      {"small-synth", disk::SyntheticSmallDisk(),
       disk::SyntheticSmallDiskSeek()},
      {"fast-synth", disk::SyntheticFastDisk(), disk::SyntheticFastDiskSeek()},
  };
}

constexpr double kTolerances[] = {0.05, 0.01, 1e-3, 1e-4, 1e-5};
constexpr double kRoundLength = 1.0;

TEST(EngineAgreementTest, AllEnginesConsistentAcrossPresetGrid) {
  auto sizes = workload::GammaSizeDistribution::Create(200e3, 1e10);
  ASSERT_TRUE(sizes.ok());
  for (const PresetCase& preset : Presets()) {
    auto model = ServiceTimeModel::ForMultiZoneDisk(preset.geometry,
                                                    preset.seek, 200e3, 1e10);
    ASSERT_TRUE(model.ok()) << preset.name;
    const ServiceTimeModel bachmat =
        model->WithSeekBound(SeekBoundKind::kBachmat);
    const int worst_case =
        WorstCaseAdmission(preset.geometry, preset.seek, *sizes, kRoundLength,
                           WorstCaseConfig())
            .n_max;
    for (const double delta : kTolerances) {
      const int chernoff =
          MaxStreamsByLateProbability(*model, kRoundLength, delta);
      const int snc = SncMaxStreams(*model, kRoundLength, delta);
      const int saddle = SaddlepointMaxStreams(*model, kRoundLength, delta);
      const int chernoff_bachmat =
          MaxStreamsByLateProbability(bachmat, kRoundLength, delta);
      const int snc_bachmat = SncMaxStreams(bachmat, kRoundLength, delta);
      const auto exact = ExactMaxStreams(*model, kRoundLength, delta);
      ASSERT_TRUE(exact.ok()) << preset.name;

      EXPECT_LE(std::abs(snc - chernoff), 1)
          << preset.name << " delta=" << delta << " snc=" << snc
          << " chernoff=" << chernoff;
      EXPECT_GE(saddle, chernoff) << preset.name << " delta=" << delta;
      EXPECT_GE(chernoff_bachmat, chernoff)
          << preset.name << " delta=" << delta;
      EXPECT_LE(std::abs(snc_bachmat - chernoff_bachmat), 1)
          << preset.name << " delta=" << delta;
      EXPECT_GE(*exact, chernoff) << preset.name << " delta=" << delta;
      EXPECT_LE(std::abs(*exact - saddle), 1)
          << preset.name << " delta=" << delta << " exact=" << *exact
          << " saddle=" << saddle;
      for (int n_max : {chernoff, snc, saddle, chernoff_bachmat, *exact}) {
        EXPECT_GE(n_max, worst_case)
            << preset.name << " delta=" << delta << " n_max=" << n_max;
      }
    }
  }
}

// MaxStreamsWithin stops at the first n whose p(n) breaks the tolerance,
// which is the largest admissible n only because p(n) never decreases.
// Check every engine it serves, over presets x size laws x t, from n = 1
// to 3 past the largest limit any engine admits at delta = 0.05. The
// Chernoff-family values come from warm scans, as the searches see them.
// The same pass holds the model-exact tail under b_late and the Cantelli
// bound, and the saddlepoint estimate within 5% of it wherever the tail
// lies in [1e-12, 1e-3] (3.9% at most on this grid).
TEST(EngineAgreementTest, EveryEngineQualityIsNondecreasingInN) {
  constexpr double kDelta = 0.05;
  constexpr int kRounds = 1200;
  constexpr int kGlitches = 12;
  constexpr int kRepairRequests = 2;
  const struct {
    double mean_bytes;
    double stddev_bytes;
  } laws[] = {{200e3, 100e3}, {64e3, 32e3}, {1e6, 1e6}, {500e3, 250e3}};
  int steps = 0;
  for (const PresetCase& preset : Presets()) {
    for (const auto& law : laws) {
      for (const double t : {0.5, 1.0, 2.0}) {
        auto model = ServiceTimeModel::ForMultiZoneDisk(
            preset.geometry, preset.seek, law.mean_bytes,
            law.stddev_bytes * law.stddev_bytes);
        ASSERT_TRUE(model.ok()) << preset.name;
        const ServiceTimeModel bachmat =
            model->WithSeekBound(SeekBoundKind::kBachmat);
        const int n_top =
            3 + std::max({
                    MaxStreamsByLateProbability(*model, t, kDelta),
                    MaxStreamsByLateProbability(bachmat, t, kDelta),
                    SncMaxStreams(*model, t, kDelta),
                    SaddlepointMaxStreams(*model, t, kDelta),
                    NormalApproxMaxStreams(*model, t, kDelta),
                    ChebyshevMaxStreams(*model, t, kDelta),
                    MaxStreamsByGlitchRate(*model, t, kRounds, kGlitches,
                                           kDelta),
                    MaxStreamsByLateProbabilityDegraded(*model, t, kDelta,
                                                        kRepairRequests),
                });

        LateBoundScan chernoff(&*model, t);
        LateBoundScan chernoff_bachmat(&bachmat, t);
        LateBoundScan glitch(&*model, t);
        LateBoundScan degraded(&*model, t);
        const SncEngine snc(*model, t);
        double late_bound_sum = 0.0;
        const std::vector<
            std::pair<const char*, std::function<double(int)>>>
            engines = {
                {"chernoff",
                 [&](int n) { return chernoff.LateBound(n).bound; }},
                {"chernoff-bachmat",
                 [&](int n) { return chernoff_bachmat.LateBound(n).bound; }},
                {"snc", [&](int n) { return snc.RoundDelayBound(n).bound; }},
                {"saddlepoint",
                 [&](int n) {
                   return SaddlepointLateProbability(*model, n, t).probability;
                 }},
                {"clt",
                 [&](int n) {
                   return NormalApproxLateProbability(*model, n, t);
                 }},
                {"cantelli",
                 [&](int n) { return ChebyshevLateBound(*model, n, t); }},
                {"p_error",
                 [&](int n) {
                   late_bound_sum += glitch.LateBound(n).bound;
                   return GlitchModel::ErrorBoundForGlitchProbability(
                       std::fmin(late_bound_sum / n, 1.0), kRounds,
                       kGlitches);
                 }},
                {"degraded",
                 [&](int n) {
                   return degraded.LateBound(2 * n + kRepairRequests).bound;
                 }},
                {"exact",
                 [&](int n) {
                   return ExactLateProbability(*model, n, t).value();
                 }},
            };
        // Positions in `engines` of the values compared across engines.
        constexpr size_t kChernoff = 0;
        constexpr size_t kSaddlepoint = 3;
        constexpr size_t kCantelli = 5;
        constexpr size_t kExact = 8;
        std::vector<double> previous(engines.size());
        for (int n = 1; n <= n_top; ++n) {
          for (size_t e = 0; e < engines.size(); ++e) {
            const double p = engines[e].second(n);
            if (n > 1) {
              EXPECT_GE(p, previous[e])
                  << engines[e].first << " " << preset.name << " mean="
                  << law.mean_bytes << " t=" << t << " n=" << n;
            }
            previous[e] = p;
          }
          const double exact = previous[kExact];
          EXPECT_LE(exact, previous[kChernoff])
              << preset.name << " mean=" << law.mean_bytes << " t=" << t
              << " n=" << n;
          EXPECT_LE(exact, previous[kCantelli])
              << preset.name << " mean=" << law.mean_bytes << " t=" << t
              << " n=" << n;
          if (exact >= 1e-12 && exact <= 1e-3) {
            EXPECT_NEAR(previous[kSaddlepoint], exact, 0.05 * exact)
                << preset.name << " mean=" << law.mean_bytes << " t=" << t
                << " n=" << n;
          }
          if (n > 1) ++steps;
        }
      }
    }
  }
  EXPECT_GT(steps, 1000);
}

}  // namespace
}  // namespace zonestream::core
