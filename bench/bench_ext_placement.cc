// Extension X3 — zone-aware placement ([Bir95]/[TKKD96], the §2.2
// outlook): admission capacity under uniform placement (the paper's
// assumption) vs outer-zones-only vs Birk-style track pairing.
//
// Expected shape: outer-zone placement buys the most capacity (faster
// rates) at a storage cost; track pairing removes the rate-variability
// penalty at full capacity; uniform is the baseline N_max = 26. Analytic
// ordering is confirmed by simulation at N = 28.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "common/table_printer.h"
#include "core/admission.h"
#include "core/transfer_models.h"
#include "disk/placement.h"

namespace zonestream {
namespace {

core::ServiceTimeModel ModelFor(const disk::PlacementModel& placement) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  auto transfer = core::GammaTransferModel::ForRateMixture(
      placement.probabilities(), placement.rates(), bench::kMeanSizeBytes,
      bench::kVarSizeBytes2);
  ZS_CHECK(transfer.ok());
  auto model = core::ServiceTimeModel::WithTransferModel(
      disk::QuantumViking2100Seek(), viking.cylinders(),
      viking.rotation_time(),
      std::make_shared<core::GammaTransferModel>(*std::move(transfer)));
  ZS_CHECK(model.ok());
  return *std::move(model);
}

double SimulatedPlate(const disk::PlacementModel& placement, int n,
                      int rounds, uint64_t seed) {
  sim::SimulatorConfig config;
  config.round_length_s = bench::kRoundLengthS;
  config.seed = seed;
  config.placement = placement.config();
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      sim::RoundSimulator::IidFactory(bench::Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return simulator->EstimateLateProbability(rounds).point;
}

void RunPlacementAblation() {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  struct Row {
    std::string name;
    disk::PlacementConfig config;
  };
  std::vector<Row> rows = {
      {"uniform over capacity (paper)", {}},
      {"outer 10 zones", {disk::PlacementStrategy::kOuterZones, 10}},
      {"outer 5 zones", {disk::PlacementStrategy::kOuterZones, 5}},
      {"track pairing (Birk)", {disk::PlacementStrategy::kTrackPairing, 0}},
  };

  const int rounds = bench::ScaledCount(60000);
  common::TablePrinter table(
      "Extension X3: placement strategies (Table 1 disk, t = 1 s)");
  table.SetHeader({"placement", "E[T_trans] ms", "sd[T_trans] ms",
                   "N_max (1%)", "usable capacity", "sim p_late(N=28)"});
  uint64_t seed = 4400;
  for (const Row& row : rows) {
    auto placement = disk::PlacementModel::Create(viking, row.config);
    ZS_CHECK(placement.ok());
    const core::ServiceTimeModel model = ModelFor(*placement);
    const int n_max = core::MaxStreamsByLateProbability(
        model, bench::kRoundLengthS, 0.01);
    table.AddRow(
        {row.name,
         common::FormatFixed(1e3 * model.transfer_model().mean(), 2),
         common::FormatFixed(
             1e3 * std::sqrt(model.transfer_model().variance()), 2),
         std::to_string(n_max),
         common::FormatFixed(placement->usable_capacity_fraction(), 3),
         common::FormatProbability(
             SimulatedPlate(*placement, 28, rounds, seed++))});
  }
  table.Print();

  std::printf(
      "\nReading the table: outer-zone placement trades storage for "
      "bandwidth; track pairing removes rate variability at full storage "
      "(modeled without the intra-pair seek penalty, i.e. an upper bound "
      "of the benefit).\n");
}

}  // namespace
}  // namespace zonestream

int main() {
  zonestream::RunPlacementAblation();
  return 0;
}
