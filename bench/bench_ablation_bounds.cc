// Ablation A1 — bound tightness: the paper's Chernoff machinery against
// the prior-work alternatives it criticizes — the normal/CLT approximation
// ([CZ94]) and a Chebyshev-style bound ([CL96]) — plus the exact
// zone-mixture transform, all against the simulated ground truth.
//
// Expected shape: Chernoff is conservative but close; Chebyshev is valid
// but far looser (costing several streams of capacity); the CLT estimate
// is tighter than Chernoff but *not a bound* — it can cross below the
// simulated value in the tail-sensitive region.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "common/table_printer.h"
#include "core/admission.h"
#include "core/baselines.h"
#include "core/exact_tail.h"
#include "core/saddlepoint.h"
#include "core/transfer_models.h"

namespace zonestream {
namespace {

void RunBoundAblation() {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  const core::ServiceTimeModel model = bench::Table1Model();

  auto mixture =
      core::ZoneMixtureTransferModel::Create(viking, bench::Table1Sizes());
  ZS_CHECK(mixture.ok());
  auto exact_model = core::ServiceTimeModel::WithTransferModel(
      seek, viking.cylinders(), viking.rotation_time(),
      std::make_shared<core::ZoneMixtureTransferModel>(*std::move(mixture)));
  ZS_CHECK(exact_model.ok());

  const int rounds = bench::ScaledCount(100000);
  common::TablePrinter table(
      "Ablation A1: p_late(N, t=1s) estimates by method (Table 1 disk)");
  table.SetHeader({"N", "simulated", "model-exact", "chernoff(gamma)",
                   "chernoff(exact)", "saddlepoint", "normal/CLT",
                   "chebyshev"});
  for (int n = 20; n <= 32; n += 2) {
    sim::RoundSimulator simulator = bench::Table1Simulator(n, 9100 + n);
    const sim::ProbabilityEstimate simulated =
        simulator.EstimateLateProbability(rounds);
    table.AddRow(
        {std::to_string(n), common::FormatProbability(simulated.point),
         common::FormatProbability(
             *core::ExactLateProbability(model, n, bench::kRoundLengthS)),
         common::FormatProbability(
             model.LateBound(n, bench::kRoundLengthS).bound),
         common::FormatProbability(
             exact_model->LateBound(n, bench::kRoundLengthS).bound),
         common::FormatProbability(
             core::SaddlepointLateProbability(model, n, bench::kRoundLengthS)
                 .probability),
         common::FormatProbability(
             core::NormalApproxLateProbability(model, n,
                                               bench::kRoundLengthS)),
         common::FormatProbability(
             core::ChebyshevLateBound(model, n, bench::kRoundLengthS))});
  }
  table.Print();

  common::TablePrinter nmax("\nAdmission limits at delta = 1%");
  nmax.SetHeader({"method", "N_max"});
  nmax.AddRow({"chernoff (gamma-matched, the paper)",
               std::to_string(core::MaxStreamsByLateProbability(
                   model, bench::kRoundLengthS, 0.01))});
  nmax.AddRow({"chernoff (exact transform)",
               std::to_string(core::MaxStreamsByLateProbability(
                   *exact_model, bench::kRoundLengthS, 0.01))});
  nmax.AddRow({"model-exact (Irwin-Hall integral)",
               std::to_string(*core::ExactMaxStreams(
                   model, bench::kRoundLengthS, 0.01))});
  nmax.AddRow({"saddlepoint (estimate, not a bound)",
               std::to_string(core::SaddlepointMaxStreams(
                   model, bench::kRoundLengthS, 0.01))});
  nmax.AddRow({"normal/CLT (not a bound)",
               std::to_string(core::NormalApproxMaxStreams(
                   model, bench::kRoundLengthS, 0.01))});
  nmax.AddRow({"chebyshev (Cantelli)",
               std::to_string(core::ChebyshevMaxStreams(
                   model, bench::kRoundLengthS, 0.01))});
  nmax.Print();
}

}  // namespace
}  // namespace zonestream

int main() {
  zonestream::RunBoundAblation();
  return 0;
}
