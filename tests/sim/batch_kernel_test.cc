// The batched round kernel's contract:
//  - it simulates the paper's round model, so it is statistically
//    indistinguishable from a reference SCAN round loop written out over
//    the struct path (one request at a time, sorted and swept by
//    sched::OrderRequests + sched::ExecuteScanRound) on Table 1 workloads,
//  - replicated estimators stay bit-identical across thread counts (the
//    determinism contract of sim/replication.h),
//  - the disturbance substream stays isolated,
//  - observability output obeys its invariants.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_pool.h"
#include "disk/presets.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "sched/ordering.h"
#include "sched/scan.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::sim {
namespace {

std::shared_ptr<const workload::SizeDistribution> Table1Sizes() {
  auto sizes = workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3);
  ZS_CHECK(sizes.ok());
  return std::make_shared<workload::GammaSizeDistribution>(*sizes);
}

RoundSimulator MakeSimulator(int n, uint64_t seed) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = seed;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return *std::move(simulator);
}

// The reference: the paper's SCAN round written out one request at a
// time on the struct path. Each stream draws a uniform-over-capacity
// position (DiskGeometry::SampleUniformPosition), a Table 1 size and a
// uniform rotational latency, in issue order from one engine; the round
// sweeps from where the arm rests in its current direction; a request is
// on time when it completes by the deadline; the arm then rests on the
// last on-time request (or stays put) and the direction flips — the arm
// rules ArmTest checks sched::Arm against.
class ReferenceScanRound {
 public:
  ReferenceScanRound(int n, uint64_t seed)
      : n_(n),
        rng_(seed),
        geometry_(disk::QuantumViking2100()),
        seek_(disk::QuantumViking2100Seek()),
        sizes_(Table1Sizes()) {}

  RoundOutcome Run() {
    std::vector<sched::DiskRequest> requests(static_cast<size_t>(n_));
    for (int stream = 0; stream < n_; ++stream) {
      const disk::DiskPosition position =
          geometry_.SampleUniformPosition(&rng_);
      sched::DiskRequest& request = requests[stream];
      request.stream_id = stream;
      request.cylinder = position.cylinder;
      request.zone = position.zone;
      request.transfer_rate_bps = position.transfer_rate_bps;
      request.bytes = sizes_->Sample(&rng_);
      request.rotational_latency_s =
          rng_.Uniform(0.0, geometry_.rotation_time());
    }
    sched::OrderRequests(&requests, sched::ServicePolicy::kScan, arm_,
                         ascending_ ? sched::SweepDirection::kAscending
                                    : sched::SweepDirection::kDescending);
    const sched::RoundTiming timing =
        sched::ExecuteScanRound(seek_, requests, arm_);
    RoundOutcome outcome;
    outcome.total_service_time_s = timing.total_service_time_s;
    outcome.overran = outcome.total_service_time_s > kRoundLength;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (timing.per_request[i].completion_s > kRoundLength) {
        outcome.glitched_streams.push_back(requests[i].stream_id);
      } else {
        arm_ = requests[i].cylinder;
      }
    }
    ascending_ = !ascending_;
    return outcome;
  }

 private:
  static constexpr double kRoundLength = 1.0;
  int n_;
  numeric::Rng rng_;
  disk::DiskGeometry geometry_;
  disk::SeekTimeModel seek_;
  std::shared_ptr<const workload::SizeDistribution> sizes_;
  int arm_ = 0;
  bool ascending_ = true;
};

// --------------------------------------------------------------------------
// Statistical equivalence: the kernel and the reference draw the same
// distributions in a different order, so sample paths differ but every
// statistic agrees.

TEST(BatchKernelTest, KernelsAgreeOnMeanServiceTime) {
  const int rounds = 20000;
  RoundSimulator batched = MakeSimulator(26, 101);
  ReferenceScanRound reference(26, 202);
  const numeric::RunningStats b = batched.SampleServiceTimes(rounds);
  numeric::RunningStats s;
  for (int r = 0; r < rounds; ++r) {
    s.Add(reference.Run().total_service_time_s);
  }
  // 5-sigma on the difference of two independent sample means.
  const double se =
      std::sqrt(b.variance() / rounds + s.variance() / rounds);
  EXPECT_NEAR(b.mean(), s.mean(), 5.0 * se)
      << "batched mean " << b.mean() << " reference mean " << s.mean();
  // Per-round spread must match too (same distribution, not just mean).
  EXPECT_NEAR(std::sqrt(b.variance()), std::sqrt(s.variance()),
              0.1 * std::sqrt(s.variance()));
}

// Two-sample Kolmogorov–Smirnov distance between the kernel's and the
// reference's service time distributions, against the asymptotic
// critical value c(alpha) * sqrt((n + m) / (n * m)): same distribution,
// different draw order.
TEST(BatchKernelTest, KernelsPassTwoSampleKolmogorovSmirnov) {
  const int rounds = 10000;
  RoundSimulator batched = MakeSimulator(26, 111);
  ReferenceScanRound reference(26, 222);
  std::vector<double> b(rounds);
  std::vector<double> s(rounds);
  for (int r = 0; r < rounds; ++r) {
    b[r] = batched.RunRound().total_service_time_s;
    s[r] = reference.Run().total_service_time_s;
  }
  std::sort(b.begin(), b.end());
  std::sort(s.begin(), s.end());
  double statistic = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < b.size() && j < s.size()) {
    if (b[i] <= s[j]) {
      ++i;
    } else {
      ++j;
    }
    statistic = std::max(
        statistic, std::abs(static_cast<double>(i) / b.size() -
                            static_cast<double>(j) / s.size()));
  }
  // c(0.001) = sqrt(-ln(0.0005) / 2) ≈ 1.95; two-sample scaling.
  const double critical =
      std::sqrt(-std::log(0.0005) / 2.0) *
      std::sqrt(static_cast<double>(b.size() + s.size()) /
                (static_cast<double>(b.size()) * s.size()));
  EXPECT_LT(statistic, critical);
}

TEST(BatchKernelTest, KernelsAgreeOnLateProbability) {
  // N = 30 sits near the deadline so p_late is comfortably in (0, 1) and
  // the comparison has statistical power.
  const int rounds = 20000;
  RoundSimulator batched = MakeSimulator(30, 303);
  ReferenceScanRound reference(30, 404);
  const ProbabilityEstimate b = batched.EstimateLateProbability(rounds);
  int late = 0;
  for (int r = 0; r < rounds; ++r) late += reference.Run().overran ? 1 : 0;
  const double s = static_cast<double>(late) / rounds;
  EXPECT_GT(b.point, 0.0);
  EXPECT_LT(b.point, 1.0);
  const double pooled = 0.5 * (b.point + s);
  const double se = std::sqrt(2.0 * pooled * (1.0 - pooled) / rounds);
  EXPECT_NEAR(b.point, s, 5.0 * se + 1e-6)
      << "batched " << b.point << " reference " << s;
}

// --------------------------------------------------------------------------
// Determinism contract: batched replicated estimates are bit-identical at
// any thread count (replication r's path depends only on (base_seed, r)).

TEST(BatchKernelTest, BatchedReplicationBitIdenticalAcrossThreadCounts) {
  const auto factory = RoundSimulator::IidFactory(Table1Sizes());
  SimulatorConfig config;
  config.round_length_s = 1.0;

  common::ThreadPool one(1);
  ReplicationOptions options;
  options.replications = 16;
  options.pool = &one;
  const auto reference = EstimateLateProbabilityReplicated(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28, factory,
      config, /*rounds_per_replication=*/25, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 4}) {
    common::ThreadPool pool(threads);
    options.pool = &pool;
    const auto estimate = EstimateLateProbabilityReplicated(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 28,
        factory, config, 25, options);
    ASSERT_TRUE(estimate.ok());
    EXPECT_EQ(estimate->point, reference->point) << threads << " threads";
    EXPECT_EQ(estimate->ci_lower, reference->ci_lower);
    EXPECT_EQ(estimate->ci_upper, reference->ci_upper);
    EXPECT_EQ(estimate->trials, reference->trials);
  }
}

// --------------------------------------------------------------------------
// Disturbance substream isolation holds in the batched kernel: zero
// probability consumes no disturbance draws, and a degenerate constant
// delay shifts every round by exactly N * d.

TEST(BatchKernelTest, BatchedZeroProbabilityDisturbanceMatchesClean) {
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 707;
  config.disturbance = DisturbanceConfig{};
  auto clean = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(clean.ok());
  DisturbanceConfig none;
  none.probability = 0.0;
  config.disturbance = none;
  auto disturbed = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(disturbed.ok());
  for (int r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(clean->RunRound().total_service_time_s,
                     disturbed->RunRound().total_service_time_s);
  }
}

TEST(BatchKernelTest, BatchedConstantDelayShiftsRoundsByExactlyNDelay) {
  const int n = 20;
  const double d = 0.01;
  DisturbanceConfig constant;
  constant.probability = 1.0;
  constant.delay_min_s = d;
  constant.delay_max_s = d;

  SimulatorConfig config;
  config.round_length_s = 10.0;  // glitch-free keeps the arms in lockstep
  config.seed = 808;
  config.disturbance = constant;
  auto disturbed = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(disturbed.ok());
  config.disturbance = DisturbanceConfig{};
  auto clean = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(clean.ok());

  for (int r = 0; r < 200; ++r) {
    EXPECT_NEAR(disturbed->RunRound().total_service_time_s,
                clean->RunRound().total_service_time_s + n * d, 1e-9)
        << "round " << r;
  }
}

// --------------------------------------------------------------------------
// Observability invariants under the batched kernel.

TEST(BatchKernelTest, BatchedObservabilityInvariantsHold) {
  const int n = 26;
  const int rounds = 300;
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = 909;
  config.metrics = &registry;
  config.trace = &trace;
  config.trace_source_id = 4;
  auto simulator = RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      RoundSimulator::IidFactory(Table1Sizes()), config);
  ASSERT_TRUE(simulator.ok());
  double sum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    sum += simulator->RunRound().total_service_time_s;
  }

  EXPECT_EQ(registry.GetCounter("sim.rounds")->value(), rounds);
  EXPECT_EQ(registry.GetCounter("sim.requests")->value(), n * rounds);
  const obs::HistogramSnapshot snapshot =
      registry.GetHistogram("sim.round.service_time_s")->Snapshot();
  EXPECT_EQ(snapshot.count, rounds);
  EXPECT_NEAR(snapshot.mean(), sum / rounds, 1e-12);

  const int num_zones = disk::QuantumViking2100().num_zones();
  int64_t counter_hits = 0;
  for (int z = 0; z < num_zones; ++z) {
    counter_hits +=
        registry.GetCounter("sim.zone_hits." + std::to_string(z))->value();
  }
  EXPECT_EQ(counter_hits, int64_t{n} * rounds);

  const std::vector<obs::RoundTraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(rounds));
  int64_t trace_hits = 0;
  for (const obs::RoundTraceEvent& event : events) {
    EXPECT_EQ(event.source_id, 4);
    EXPECT_EQ(event.num_requests, n);
    EXPECT_NEAR(event.service_time_s,
                event.seek_s + event.rotation_s + event.transfer_s +
                    event.disturbance_delay_s,
                1e-9 * event.service_time_s + 1e-12);
    ASSERT_EQ(event.zone_hits.size(), static_cast<size_t>(num_zones));
    for (int32_t hits : event.zone_hits) trace_hits += hits;
  }
  EXPECT_EQ(trace_hits, int64_t{n} * rounds);
}

}  // namespace
}  // namespace zonestream::sim
