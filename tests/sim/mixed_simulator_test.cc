#include "sim/mixed_simulator.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mixed_workload.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::GammaSizeDistribution> VideoSizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 1e10));
}

std::shared_ptr<const workload::GammaSizeDistribution> WebSizes() {
  return std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(40e3, 30e3 * 30e3));
}

MixedRoundSimulator MakeSimulator(int n, double lambda, uint64_t seed = 5) {
  MixedSimulatorConfig config;
  config.round_length_s = 1.0;
  config.discrete_arrival_rate_hz = lambda;
  config.seed = seed;
  auto simulator = MixedRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      VideoSizes(), WebSizes(), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

TEST(MixedSimulatorTest, CreateValidation) {
  MixedSimulatorConfig config;
  EXPECT_FALSE(MixedRoundSimulator::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   -1, VideoSizes(), WebSizes(), config)
                   .ok());
  EXPECT_FALSE(MixedRoundSimulator::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   5, nullptr, WebSizes(), config)
                   .ok());
  config.discrete_arrival_rate_hz = -1.0;
  EXPECT_FALSE(MixedRoundSimulator::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   5, VideoSizes(), WebSizes(), config)
                   .ok());
}

TEST(MixedSimulatorTest, NoDiscreteTrafficMatchesPureContinuous) {
  MixedRoundSimulator simulator = MakeSimulator(26, 0.0);
  const MixedRunResult result = simulator.Run(5000);
  EXPECT_EQ(result.discrete_arrivals, 0);
  EXPECT_EQ(result.discrete_completed, 0);
  EXPECT_EQ(result.continuous_requests, 5000 * 26);
  // N = 26 is the admission point: glitches are rare.
  EXPECT_LT(result.continuous_glitch_rate, 0.001);
  EXPECT_GT(result.mean_leftover_s, 0.1);
}

TEST(MixedSimulatorTest, DiscreteTrafficServedUnderLightLoad) {
  // 20 continuous streams leave ~300 ms/round; 5 discrete req/s at ~17 ms
  // each uses ~85 ms — comfortably stable.
  MixedRoundSimulator simulator = MakeSimulator(20, 5.0);
  const MixedRunResult result = simulator.Run(4000);
  EXPECT_GT(result.discrete_completed, 0);
  // Nearly all arrivals complete (queue stays bounded).
  EXPECT_GT(static_cast<double>(result.discrete_completed) /
                result.discrete_arrivals,
            0.99);
  EXPECT_NEAR(result.mean_discrete_per_round, 5.0, 0.5);
  // Response time: at least one service time (arrivals inside the
  // leftover window can be served almost immediately), far below blowup.
  EXPECT_GT(result.mean_response_time_s, 0.02);
  EXPECT_LT(result.mean_response_time_s, 3.0);
  EXPECT_GE(result.p95_response_time_s, result.mean_response_time_s);
}

TEST(MixedSimulatorTest, ContinuousQoSUnaffectedByDiscreteLoad) {
  // Discrete requests only use leftover time, so continuous glitch rates
  // must not degrade.
  MixedRoundSimulator quiet = MakeSimulator(26, 0.0, 9);
  MixedRoundSimulator busy = MakeSimulator(26, 8.0, 9);
  const MixedRunResult quiet_result = quiet.Run(6000);
  const MixedRunResult busy_result = busy.Run(6000);
  EXPECT_NEAR(busy_result.continuous_glitch_rate,
              quiet_result.continuous_glitch_rate, 5e-4);
}

TEST(MixedSimulatorTest, OverloadedDiscreteQueueGrows) {
  // 26 continuous streams leave ~145 ms/round; 20 req/s need ~340 ms —
  // unstable, the queue must back up.
  MixedRoundSimulator simulator = MakeSimulator(26, 20.0);
  const MixedRunResult result = simulator.Run(2000);
  EXPECT_LT(static_cast<double>(result.discrete_completed) /
                result.discrete_arrivals,
            0.8);
  EXPECT_GT(result.max_queue_depth, 100);
}

TEST(MixedSimulatorTest, LeftoverMatchesAnalyticModel) {
  const int n = 22;
  MixedRoundSimulator simulator = MakeSimulator(n, 0.0, 13);
  const MixedRunResult result = simulator.Run(8000);
  auto model = core::MixedWorkloadModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10,
      core::DiscreteWorkload{40e3, 30e3 * 30e3});
  ASSERT_TRUE(model.ok());
  // The analytic leftover uses the Oyang seek bound, so it must be a
  // (slightly pessimistic) lower bound on the simulated leftover.
  EXPECT_LE(model->ExpectedLeftoverTime(n, 1.0),
            result.mean_leftover_s + 0.01);
  // And within the seek bound's slack of the simulation.
  EXPECT_NEAR(model->ExpectedLeftoverTime(n, 1.0), result.mean_leftover_s,
              0.08);
}

TEST(MixedSimulatorTest, ThroughputMatchesAnalyticEstimate) {
  const int n = 20;
  const double lambda = 8.0;
  MixedRoundSimulator simulator = MakeSimulator(n, lambda, 17);
  const MixedRunResult result = simulator.Run(6000);
  auto model = core::MixedWorkloadModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10,
      core::DiscreteWorkload{40e3, 30e3 * 30e3});
  ASSERT_TRUE(model.ok());
  // Offered load of 8/s is below the analytic capacity, so the simulator
  // should complete essentially all of it.
  EXPECT_GT(model->ExpectedDiscreteThroughput(n, 1.0), lambda);
  EXPECT_NEAR(result.mean_discrete_per_round, lambda, 0.8);
}

TEST(MixedSimulatorTest, NoArrivalsIsTheBatchedRoundSimulator) {
  // With no discrete traffic the continuous side draws RoundSimulator's
  // batched variates in its order and serves them through the same SCAN
  // kernel, so every round agrees bit for bit with the alternating-sweep
  // simulator on the same seed. 8 and 26 sort on the network, 32 at its
  // edge, 33 and 40 on 64-bit keys; above N_max = 26 the deadline ledger
  // and the late-round arm rule are compared too.
  constexpr int kRounds = 1200;
  constexpr uint64_t kSeed = 4242;
  for (const int n : {8, 26, 32, 33, 40}) {
    SCOPED_TRACE(::testing::Message() << "N=" << n);
    obs::RoundTraceRecorder mixed_trace(kRounds);
    MixedSimulatorConfig mixed_config;
    mixed_config.round_length_s = 1.0;
    mixed_config.seed = kSeed;
    mixed_config.trace = &mixed_trace;
    auto mixed = MixedRoundSimulator::Create(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
        VideoSizes(), WebSizes(), mixed_config);
    ASSERT_TRUE(mixed.ok());
    mixed->Run(kRounds);

    obs::RoundTraceRecorder sim_trace(kRounds);
    SimulatorConfig sim_config;
    sim_config.round_length_s = 1.0;
    sim_config.seed = kSeed;
    sim_config.policy = sched::ServicePolicy::kScan;
    sim_config.trace = &sim_trace;
    auto simulator = RoundSimulator::Create(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
        RoundSimulator::IidFactory(VideoSizes()), sim_config);
    ASSERT_TRUE(simulator.ok());
    for (int r = 0; r < kRounds; ++r) simulator->RunRound();

    const std::vector<obs::RoundTraceEvent> a = mixed_trace.Snapshot();
    const std::vector<obs::RoundTraceEvent> b = sim_trace.Snapshot();
    ASSERT_EQ(a.size(), static_cast<size_t>(kRounds));
    ASSERT_EQ(b.size(), static_cast<size_t>(kRounds));
    int64_t glitches = 0;
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(a[r].service_time_s, b[r].service_time_s) << "round " << r;
      EXPECT_EQ(a[r].glitches, b[r].glitches) << "round " << r;
      glitches += a[r].glitches;
    }
    if (n > 26) {
      EXPECT_GT(glitches, 0);
    }
  }
}

TEST(MixedSimulatorTest, RunInPiecesIsOneRun) {
  // Arrival and queue times are absolute, so successive Run() calls
  // continue one run: two halves serve exactly what one whole run does.
  constexpr int kRounds = 400;
  obs::RoundTraceRecorder whole_trace(kRounds);
  obs::RoundTraceRecorder pieces_trace(kRounds);
  MixedSimulatorConfig config;
  config.round_length_s = 1.0;
  config.discrete_arrival_rate_hz = 20.0;
  config.seed = 515;
  config.trace = &whole_trace;
  auto whole = MixedRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 20,
      VideoSizes(), WebSizes(), config);
  config.trace = &pieces_trace;
  auto pieces = MixedRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 20,
      VideoSizes(), WebSizes(), config);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(pieces.ok());
  const MixedRunResult one = whole->Run(kRounds);
  const MixedRunResult first = pieces->Run(kRounds / 2);
  const MixedRunResult second = pieces->Run(kRounds / 2);
  EXPECT_EQ(first.discrete_completed + second.discrete_completed,
            one.discrete_completed);
  EXPECT_EQ(first.discrete_arrivals + second.discrete_arrivals,
            one.discrete_arrivals);
  EXPECT_EQ(first.continuous_glitches + second.continuous_glitches,
            one.continuous_glitches);

  const std::vector<obs::RoundTraceEvent> a = whole_trace.Snapshot();
  const std::vector<obs::RoundTraceEvent> b = pieces_trace.Snapshot();
  ASSERT_EQ(a.size(), static_cast<size_t>(kRounds));
  ASSERT_EQ(b.size(), static_cast<size_t>(kRounds));
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_EQ(a[r].round, b[r].round);
    EXPECT_EQ(a[r].service_time_s, b[r].service_time_s) << "round " << r;
    EXPECT_EQ(a[r].seek_s, b[r].seek_s) << "round " << r;
    EXPECT_EQ(a[r].rotation_s, b[r].rotation_s) << "round " << r;
    EXPECT_EQ(a[r].transfer_s, b[r].transfer_s) << "round " << r;
    EXPECT_EQ(a[r].glitches, b[r].glitches) << "round " << r;
    EXPECT_EQ(a[r].leftover_s, b[r].leftover_s) << "round " << r;
    EXPECT_EQ(a[r].zone_hits, b[r].zone_hits) << "round " << r;
  }
}

TEST(MixedSimulatorTest, MetricsEqualTheRunResults) {
  // A run with metrics attached: the "mixed.*" counters sum the run
  // results of successive Run() calls, each round records one continuous
  // service time and one leftover, each served discrete request one
  // response time, and the hooks leave the sample path alone.
  obs::Registry registry;
  MixedSimulatorConfig config;
  config.round_length_s = 1.0;
  config.discrete_arrival_rate_hz = 20.0;
  config.seed = 616;
  auto plain = MixedRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28,
      VideoSizes(), WebSizes(), config);
  config.metrics = &registry;
  auto hooked = MixedRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28,
      VideoSizes(), WebSizes(), config);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(hooked.ok());
  MixedRunResult total;
  double response_sum = 0.0;
  for (const int rounds : {300, 200}) {
    const MixedRunResult expected = plain->Run(rounds);
    const MixedRunResult result = hooked->Run(rounds);
    EXPECT_EQ(result.continuous_glitches, expected.continuous_glitches);
    EXPECT_EQ(result.discrete_completed, expected.discrete_completed);
    EXPECT_EQ(result.mean_response_time_s, expected.mean_response_time_s);
    total.rounds += result.rounds;
    total.continuous_requests += result.continuous_requests;
    total.continuous_glitches += result.continuous_glitches;
    total.discrete_completed += result.discrete_completed;
    response_sum += result.mean_response_time_s *
                    static_cast<double>(result.discrete_completed);
  }
  EXPECT_GT(total.continuous_glitches, 0);
  EXPECT_GT(total.discrete_completed, 0);

  EXPECT_EQ(registry.GetCounter("mixed.rounds")->value(), total.rounds);
  EXPECT_EQ(registry.GetCounter("mixed.continuous_requests")->value(),
            total.continuous_requests);
  EXPECT_EQ(registry.GetCounter("mixed.continuous_glitches")->value(),
            total.continuous_glitches);
  EXPECT_EQ(registry.GetCounter("mixed.discrete_completed")->value(),
            total.discrete_completed);
  EXPECT_EQ(
      registry.GetHistogram("mixed.round.continuous_service_s")
          ->Snapshot()
          .count,
      total.rounds);
  EXPECT_EQ(registry.GetHistogram("mixed.round.leftover_s")->Snapshot().count,
            total.rounds);
  const obs::HistogramSnapshot responses =
      registry.GetHistogram("mixed.response_time_s")->Snapshot();
  EXPECT_EQ(responses.count, total.discrete_completed);
  EXPECT_NEAR(responses.sum, response_sum, 1e-9 * response_sum);
}

TEST(MixedSimulatorTest, DiscreteSamplePathIsPinned) {
  // A loaded continuous side (N = 29 glitches now and then) with Poisson
  // discrete traffic in its leftover windows. The values were captured
  // before the continuous sweep moved onto sched::ScanKernel; the move
  // keeps every draw, so EXPECT_EQ on doubles is deliberate.
  obs::RoundTraceRecorder trace(400);
  MixedSimulatorConfig config;
  config.round_length_s = 1.0;
  config.discrete_arrival_rate_hz = 2.0;
  config.seed = 515;
  config.trace = &trace;
  auto simulator = MixedRoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 29,
      VideoSizes(), WebSizes(), config);
  ASSERT_TRUE(simulator.ok());
  const MixedRunResult result = simulator->Run(400);
  EXPECT_EQ(result.continuous_glitches, 6);
  EXPECT_EQ(result.discrete_arrivals, 845);
  EXPECT_EQ(result.discrete_completed, 845);
  EXPECT_EQ(result.max_queue_depth, 7);
  EXPECT_EQ(result.mean_leftover_s, 0.14538084444880325);
  EXPECT_EQ(result.mean_response_time_s, 0.45694512495731637);
  EXPECT_EQ(result.p95_response_time_s, 0.94921704799845918);
  double service = 0.0;
  double seek = 0.0;
  double rotation = 0.0;
  double transfer = 0.0;
  for (const obs::RoundTraceEvent& event : trace.Snapshot()) {
    service += event.service_time_s;
    seek += event.seek_s;
    rotation += event.rotation_s;
    transfer += event.transfer_s;
  }
  EXPECT_EQ(service, 341.88310275163695);
  EXPECT_EQ(seek, 44.264509119672624);
  EXPECT_EQ(rotation, 48.373837991048326);
  EXPECT_EQ(transfer, 249.24475564091622);
}

}  // namespace
}  // namespace zonestream::sim
