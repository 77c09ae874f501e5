// Distribution-level validation: the model's T_N law (via its exact tail,
// core/exact_tail.h) against the simulated service-time distribution, across
// quantiles — a much stronger check than comparing a single tail point.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_tail.h"
#include "core/service_time_model.h"
#include "disk/presets.h"
#include "sched/oyang_bound.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream {
namespace {

TEST(DistributionValidationTest, ModelCdfBracketsSimulatedServiceTimes) {
  // The model differs from the simulation in exactly one way: it charges
  // the Oyang worst-case sweep SEEK(N) instead of the realized seeks. So
  // for every x, the model's T_N stochastically dominates the simulated
  // one, but shifting the simulated times by the (bounded) seek slack
  // must dominate the model. Formally, with S = SEEK(N):
  //   F_model(x) <= F_sim(x) <= F_model(x - S + realized-seek-min)
  // We verify the practical version at several quantiles: the model's
  // quantile is above the simulated quantile, by at most the seek bound.
  const int n = 26;
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ASSERT_TRUE(model.ok());
  const double seek_bound = model->SeekBound(n);

  auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
  sim::SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 60;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      sim::RoundSimulator::IidFactory(sizes), config);
  ASSERT_TRUE(simulator.ok());

  constexpr int kRounds = 30000;
  std::vector<double> samples;
  samples.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    samples.push_back(simulator->RunRound().total_service_time_s);
  }
  std::sort(samples.begin(), samples.end());

  // Model quantile via bisection on the exact CDF.
  const auto model_tail = [&](double x) {
    return *core::ExactLateProbability(*model, n, x);
  };
  const auto model_quantile = [&](double q) {
    double lo = 0.3;
    double hi = 1.6;
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (1.0 - model_tail(mid) < q) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };

  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double simulated =
        samples[static_cast<size_t>(q * (samples.size() - 1))];
    const double modeled = model_quantile(q);
    EXPECT_GE(modeled, simulated - 0.005)
        << "q=" << q;  // model dominates (tolerance: MC noise)
    EXPECT_LE(modeled, simulated + seek_bound + 0.005)
        << "q=" << q;  // by at most the seek slack
  }
}

TEST(DistributionValidationTest, SimulatedMomentsWithinSeekSlackOfModel) {
  const int n = 28;
  auto model = core::ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ASSERT_TRUE(model.ok());
  auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
  sim::SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 61;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      sim::RoundSimulator::IidFactory(sizes), config);
  ASSERT_TRUE(simulator.ok());
  const numeric::RunningStats stats = simulator->SampleServiceTimes(30000);
  const core::ServiceTimeMoments moments = model->Moments(n);
  EXPECT_GE(moments.mean_s, stats.mean());
  EXPECT_LE(moments.mean_s - stats.mean(), model->SeekBound(n));
}

}  // namespace
}  // namespace zonestream
