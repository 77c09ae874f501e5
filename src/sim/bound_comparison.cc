#include "sim/bound_comparison.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/table_printer.h"
#include "core/admission.h"
#include "core/baselines.h"
#include "core/multiclass.h"
#include "core/saddlepoint.h"
#include "core/service_time_model.h"
#include "core/snc.h"
#include "disk/presets.h"
#include "sim/importance_sampling.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

// One Monte Carlo point estimate of p_late(n, t), deterministic in
// (options.seed, n) at any thread count.
common::StatusOr<double> EstimateLateProbability(
    const ComparisonDisk& disk,
    const std::shared_ptr<const workload::GammaSizeDistribution>& sizes,
    int n, double tolerance, const BoundComparisonOptions& options,
    bool* importance_sampled) {
  SimulatorConfig config;
  config.round_length_s = options.round_length_s;
  config.seed = options.seed;
  ReplicationOptions replication;
  replication.replications = options.mc_replications;
  replication.base_seed = options.seed;
  if (tolerance < options.is_tolerance_threshold) {
    *importance_sampled = true;
    ImportanceSamplingOptions is_options;  // theta = 0: auto tilt
    auto estimate = EstimateLateProbabilityIS(
        disk.geometry, disk.seek, n, sizes, config,
        options.is_rounds_per_replication, replication, is_options);
    if (!estimate.ok()) return estimate.status();
    return estimate->point;
  }
  auto estimate = EstimateLateProbabilityReplicated(
      disk.geometry, disk.seek, n, RoundSimulator::IidFactory(sizes), config,
      options.mc_rounds_per_replication, replication);
  if (!estimate.ok()) return estimate.status();
  return estimate->point;
}

// Largest n with the simulated p_late within tolerance. The scan anchors
// at the Chernoff N_max — where the bound certifies the estimate should
// pass — and walks up for the empirical headroom (down only if sampling
// noise fails the anchor itself).
common::StatusOr<int> MonteCarloMaxStreams(
    const ComparisonDisk& disk,
    const std::shared_ptr<const workload::GammaSizeDistribution>& sizes,
    int chernoff_n_max, double tolerance,
    const BoundComparisonOptions& options, bool* importance_sampled) {
  int n = std::max(chernoff_n_max, 1);
  auto first = EstimateLateProbability(disk, sizes, n, tolerance, options,
                                       importance_sampled);
  if (!first.ok()) return first.status();
  if (*first > tolerance) {
    while (--n > 0) {
      auto estimate = EstimateLateProbability(disk, sizes, n, tolerance,
                                              options, importance_sampled);
      if (!estimate.ok()) return estimate.status();
      if (*estimate <= tolerance) break;
    }
    return n;
  }
  int mc_max = n;
  const int cap = chernoff_n_max + options.mc_scan_margin;
  while (n < cap) {
    ++n;
    auto estimate = EstimateLateProbability(disk, sizes, n, tolerance,
                                            options, importance_sampled);
    if (!estimate.ok()) return estimate.status();
    if (*estimate > tolerance) break;
    mc_max = n;
  }
  return mc_max;
}

std::string ToleranceLabel(double tolerance) {
  return common::FormatProbability(tolerance);
}

}  // namespace

std::vector<ComparisonDisk> ComparisonPresetDisks() {
  return {
      {"viking2100", disk::QuantumViking2100(), disk::QuantumViking2100Seek()},
      {"viking-1zone", disk::SingleZoneViking(),
       disk::QuantumViking2100Seek()},
      {"small-synth", disk::SyntheticSmallDisk(),
       disk::SyntheticSmallDiskSeek()},
      {"fast-synth", disk::SyntheticFastDisk(), disk::SyntheticFastDiskSeek()},
  };
}

common::StatusOr<BoundComparisonCell> CompareBoundsCell(
    const ComparisonDisk& disk, double tolerance,
    const BoundComparisonOptions& options) {
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk.geometry, disk.seek, options.mean_size_bytes,
      options.variance_size_bytes2);
  if (!model.ok()) return model.status();
  const core::ServiceTimeModel bounded =
      model->WithSeekBound(options.seek_bound);
  auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(options.mean_size_bytes,
                                               options.variance_size_bytes2));

  BoundComparisonCell cell;
  cell.disk = disk.name;
  cell.tolerance = tolerance;
  cell.worst_case =
      core::WorstCaseAdmission(disk.geometry, disk.seek, *sizes,
                               options.round_length_s, core::WorstCaseConfig())
          .n_max;
  cell.chernoff = core::MaxStreamsByLateProbability(
      bounded, options.round_length_s, tolerance, options.n_cap);
  cell.saddlepoint = core::SaddlepointMaxStreams(
      bounded, options.round_length_s, tolerance, options.n_cap);
  cell.snc = core::SncMaxStreams(bounded, options.round_length_s, tolerance,
                                 options.n_cap);
  if (options.run_monte_carlo) {
    auto mc = MonteCarloMaxStreams(disk, sizes, cell.chernoff, tolerance,
                                   options, &cell.mc_importance_sampled);
    if (!mc.ok()) return mc.status();
    cell.monte_carlo = *mc;
  }
  return cell;
}

common::StatusOr<std::vector<BoundComparisonCell>> RunBoundComparison(
    const BoundComparisonOptions& options) {
  std::vector<BoundComparisonCell> cells;
  for (const ComparisonDisk& disk : ComparisonPresetDisks()) {
    for (const double tolerance : options.tolerances) {
      auto cell = CompareBoundsCell(disk, tolerance, options);
      if (!cell.ok()) return cell.status();
      cells.push_back(*std::move(cell));
    }
  }
  return cells;
}

std::string RenderBoundComparison(const std::vector<BoundComparisonCell>& cells,
                                  const BoundComparisonOptions& options) {
  common::TablePrinter table(
      std::string("N_max by engine (seek bound: ") +
      core::SeekBoundKindName(options.seek_bound) + ", t = " +
      common::FormatDouble(options.round_length_s, 3) + " s, mean fragment " +
      common::FormatDouble(options.mean_size_bytes / 1e3, 4) + " KB)");
  table.SetHeader({"disk", "delta", "WC", "Chernoff", "Saddle", "SNC", "MC",
                   "MC estimator"});
  for (const BoundComparisonCell& cell : cells) {
    table.AddRow({cell.disk, ToleranceLabel(cell.tolerance),
                  std::to_string(cell.worst_case),
                  std::to_string(cell.chernoff),
                  std::to_string(cell.saddlepoint), std::to_string(cell.snc),
                  cell.monte_carlo < 0 ? "-" : std::to_string(cell.monte_carlo),
                  cell.monte_carlo < 0
                      ? "-"
                      : (cell.mc_importance_sampled ? "IS" : "naive")});
  }
  return table.ToString();
}

common::StatusOr<std::vector<MixComparisonRow>> RunMixComparison(
    int cbr_streams, const BoundComparisonOptions& options) {
  ZS_CHECK_GE(cbr_streams, 0);
  // A CBR class needs a near-degenerate transfer law; the Gamma matcher
  // requires positive variance, so give it a 2% coefficient of variation.
  const double cbr_mean = 64e3;
  const double cbr_sd = 0.02 * cbr_mean;
  std::vector<core::StreamClass> classes = {
      {"cbr64k", cbr_mean, cbr_sd * cbr_sd},
      {"vbr", options.mean_size_bytes, options.variance_size_bytes2},
  };
  auto model = core::MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      std::move(classes));
  if (!model.ok()) return model.status();

  const std::string label = std::to_string(cbr_streams) + "xCBR64K+VBR";
  std::vector<MixComparisonRow> rows;
  for (const double tolerance : options.tolerances) {
    MixComparisonRow row;
    row.mix = label;
    row.tolerance = tolerance;
    const core::ClassCounts base = {cbr_streams, 0};
    row.chernoff_vbr_max = model->MaxAdditionalStreams(
        base, 1, options.round_length_s, tolerance, options.n_cap);
    row.snc_vbr_max = core::MaxStreamsWithin(
        options.round_length_s, tolerance, options.n_cap, [&] {
          return [&](int n) {
            return core::SncRoundDelayBoundMixed(*model, {cbr_streams, n},
                                                 options.round_length_s)
                .bound;
          };
        });
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RenderMixComparison(const std::vector<MixComparisonRow>& rows) {
  common::TablePrinter table(
      "Admissible VBR streams on top of the CBR base (Viking, analytic)");
  table.SetHeader({"mix", "delta", "Chernoff", "SNC"});
  for (const MixComparisonRow& row : rows) {
    table.AddRow({row.mix, ToleranceLabel(row.tolerance),
                  std::to_string(row.chernoff_vbr_max),
                  std::to_string(row.snc_vbr_max)});
  }
  return table.ToString();
}

}  // namespace zonestream::sim
