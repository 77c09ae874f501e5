#include "sim/mixed_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "sched/ordering.h"

namespace zonestream::sim {

MixedRoundSimulator::MixedRoundSimulator(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_continuous,
    std::shared_ptr<const workload::SizeDistribution> continuous_sizes,
    std::shared_ptr<const workload::SizeDistribution> discrete_sizes,
    const MixedSimulatorConfig& config)
    : geometry_(geometry),
      positions_(geometry_),
      seek_(seek),
      num_continuous_(num_continuous),
      continuous_sizes_(std::move(continuous_sizes)),
      discrete_sizes_(std::move(discrete_sizes)),
      config_(config),
      rng_(config.seed) {
  if (config_.metrics != nullptr) {
    obs::Registry* registry = config_.metrics;
    Metrics metrics;
    metrics.rounds = registry->GetCounter("mixed.rounds");
    metrics.continuous_requests =
        registry->GetCounter("mixed.continuous_requests");
    metrics.continuous_glitches =
        registry->GetCounter("mixed.continuous_glitches");
    metrics.discrete_completed =
        registry->GetCounter("mixed.discrete_completed");
    metrics.continuous_service_s =
        registry->GetHistogram("mixed.round.continuous_service_s");
    metrics.leftover_s = registry->GetHistogram("mixed.round.leftover_s");
    metrics.response_time_s = registry->GetHistogram("mixed.response_time_s");
    metrics.queue_depth = registry->GetGauge("mixed.queue_depth");
    metrics_ = metrics;
  }
  const size_t n = static_cast<size_t>(num_continuous_);
  scratch_.u_pos.resize(2 * n);
  scratch_.cylinder.resize(n);
  scratch_.zone.resize(n);
  scratch_.rate_bps.resize(n);
  scratch_.bytes.resize(n);
  scratch_.rotation_s.resize(n);
  scratch_.zone_hits.resize(geometry_.num_zones());
}

common::StatusOr<MixedRoundSimulator> MixedRoundSimulator::Create(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_continuous,
    std::shared_ptr<const workload::SizeDistribution> continuous_sizes,
    std::shared_ptr<const workload::SizeDistribution> discrete_sizes,
    const MixedSimulatorConfig& config) {
  if (num_continuous < 0) {
    return common::Status::InvalidArgument("num_continuous must be >= 0");
  }
  if (continuous_sizes == nullptr || discrete_sizes == nullptr) {
    return common::Status::InvalidArgument("size distributions are null");
  }
  if (config.round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  if (config.discrete_arrival_rate_hz < 0.0) {
    return common::Status::InvalidArgument(
        "arrival rate must be non-negative");
  }
  return MixedRoundSimulator(geometry, seek, num_continuous,
                             std::move(continuous_sizes),
                             std::move(discrete_sizes), config);
}

MixedRunResult MixedRoundSimulator::Run(int rounds) {
  ZS_CHECK_GT(rounds, 0);
  MixedRunResult result;
  result.rounds = rounds;

  numeric::RunningStats response_times;
  std::vector<double> response_samples;
  numeric::RunningStats leftover;
  int64_t discrete_served_total = 0;
  int64_t arrivals = 0;

  // Pre-draw the first arrival.
  if (config_.discrete_arrival_rate_hz > 0.0 && next_arrival_s_ == 0.0) {
    next_arrival_s_ = rng_.Exponential(1.0 / config_.discrete_arrival_rate_hz);
  }

  for (int r = 0; r < rounds; ++r) {
    // Arrival times are absolute: the clock runs on across Run() calls.
    const double round_start =
        static_cast<double>(rounds_run_) * config_.round_length_s;
    const double round_end = round_start + config_.round_length_s;

    // Discrete arrivals during this round join the queue (they become
    // eligible at their arrival time; we approximate eligibility at the
    // start of the leftover window, which is when service can begin
    // anyway for arrivals earlier in the round).
    if (config_.discrete_arrival_rate_hz > 0.0) {
      while (next_arrival_s_ < round_end) {
        DiscreteRequest request;
        request.arrival_time_s = next_arrival_s_;
        request.bytes = discrete_sizes_->Sample(&rng_);
        queue_.push_back(request);
        ++arrivals;
        next_arrival_s_ +=
            rng_.Exponential(1.0 / config_.discrete_arrival_rate_hz);
      }
    }
    result.max_queue_depth = std::max<int64_t>(
        result.max_queue_depth, static_cast<int64_t>(queue_.size()));

    // Continuous batch: one SCAN sweep.
    const ContinuousSweep sweep = RunContinuousSweep();
    result.continuous_requests += num_continuous_;
    result.continuous_glitches += sweep.glitches;
    int arm = arm_.cylinder();

    // Leftover window: serve queued discrete requests FCFS until the
    // round boundary. Each pays an explicit seek from the current arm
    // position, a rotational latency and a zone-rate transfer.
    double clock = std::fmin(sweep.total_service_s, config_.round_length_s);
    leftover.Add(std::fmax(0.0, config_.round_length_s - clock));
    int64_t served_this_round = 0;
    while (!queue_.empty()) {
      const DiscreteRequest& request = queue_.front();
      // Only requests that have already arrived can be served; arrivals
      // later in the wall-clock round wait for the next window if the
      // disk reaches them "before" their arrival offset.
      const double earliest_start =
          std::fmax(clock, request.arrival_time_s - round_start);
      if (earliest_start >= config_.round_length_s) break;
      const disk::DiskPosition position =
          geometry_.SampleUniformPosition(&rng_);
      const double service =
          seek_.SeekTime(std::abs(position.cylinder - arm)) +
          rng_.Uniform(0.0, geometry_.rotation_time()) +
          request.bytes / position.transfer_rate_bps;
      if (earliest_start + service > config_.round_length_s) break;
      clock = earliest_start + service;
      arm = position.cylinder;
      const double completion_wallclock = round_start + clock;
      const double response = completion_wallclock - request.arrival_time_s;
      response_times.Add(response);
      response_samples.push_back(response);
      if (metrics_.has_value()) metrics_->response_time_s->Record(response);
      queue_.pop_front();
      ++served_this_round;
    }
    discrete_served_total += served_this_round;
    arm_.MoveTo(arm);

    // Observability: one trace event per round for the continuous sweep
    // plus the discrete-side tallies of its leftover window. Zone tallies
    // were left in scratch_.zone_hits by the sweep.
    if (config_.trace != nullptr || metrics_.has_value()) {
      const double leftover_s =
          std::fmax(0.0, config_.round_length_s - sweep.total_service_s);
      if (config_.trace != nullptr) {
        obs::RoundTraceEvent event;
        event.round = rounds_run_;
        event.source_id = config_.trace_source_id;
        event.num_requests = num_continuous_;
        event.service_time_s = sweep.total_service_s;
        event.seek_s = sweep.seek_sum;
        event.rotation_s = sweep.rotation_sum;
        event.transfer_s = sweep.transfer_sum;
        event.glitches = sweep.glitches;
        event.overran = sweep.total_service_s > config_.round_length_s;
        event.leftover_s = leftover_s;
        event.zone_hits.assign(scratch_.zone_hits.begin(),
                               scratch_.zone_hits.end());
        config_.trace->Record(std::move(event));
      }
      if (metrics_.has_value()) {
        metrics_->rounds->Increment();
        metrics_->continuous_requests->Increment(num_continuous_);
        metrics_->continuous_glitches->Increment(sweep.glitches);
        metrics_->discrete_completed->Increment(served_this_round);
        metrics_->continuous_service_s->Record(sweep.total_service_s);
        metrics_->leftover_s->Record(leftover_s);
        metrics_->queue_depth->Set(static_cast<double>(queue_.size()));
      }
    }
    ++rounds_run_;
  }

  result.continuous_glitch_rate =
      result.continuous_requests > 0
          ? static_cast<double>(result.continuous_glitches) /
                result.continuous_requests
          : 0.0;
  result.discrete_completed = discrete_served_total;
  result.discrete_arrivals = arrivals;
  result.mean_discrete_per_round =
      static_cast<double>(discrete_served_total) / rounds;
  result.mean_response_time_s =
      response_times.count() > 0 ? response_times.mean() : 0.0;
  result.p95_response_time_s =
      response_samples.empty()
          ? 0.0
          : numeric::Percentile(std::move(response_samples), 0.95);
  result.mean_leftover_s = leftover.count() > 0 ? leftover.mean() : 0.0;
  return result;
}

MixedRoundSimulator::ContinuousSweep MixedRoundSimulator::RunContinuousSweep() {
  const size_t n = static_cast<size_t>(num_continuous_);
  RoundScratch& s = scratch_;

  // Whole-round batches in RoundSimulator's batched order: 2n position
  // uniforms (zones through the geometry's alias table, then cylinders
  // within the zone), the sizes, then the rotational latencies.
  rng_.FillUniform01(s.u_pos.data(), 2 * n);
  positions_.Sample(s.u_pos.data(), s.u_pos.data() + n, n, s.zone.data(),
                    s.cylinder.data(), s.rate_bps.data());
  continuous_sizes_->FillSamples(&rng_, s.bytes.data(), n);
  rng_.FillUniform(0.0, geometry_.rotation_time(), s.rotation_s.data(), n);

  // The requests after the on-time prefix missed the deadline.
  sched::ScanKernel& kernel = s.sweep;
  const sched::Arm::Round served =
      arm_.Serve(seek_,
                 sched::ScanBatch{n, s.cylinder.data(), s.rotation_s.data(),
                                  s.bytes.data(), s.rate_bps.data()},
                 sched::ServicePolicy::kScan, config_.round_length_s, &kernel);
  const int* order = kernel.order();
  ContinuousSweep sweep;
  sweep.total_service_s = kernel.total_service_time_s();
  sweep.glitches = static_cast<int>(n - served.on_time);
  if (config_.trace != nullptr) {
    // Phase sums and zone tallies only feed the trace event.
    const double* seek_s = kernel.seek_s();
    const double* transfer_s = kernel.transfer_s();
    for (size_t pos = 0; pos < n; ++pos) {
      sweep.seek_sum += seek_s[pos];
      sweep.rotation_sum += s.rotation_s[static_cast<size_t>(order[pos])];
      sweep.transfer_sum += transfer_s[pos];
    }
    std::fill(s.zone_hits.begin(), s.zone_hits.end(), 0);
    for (size_t i = 0; i < n; ++i) ++s.zone_hits[s.zone[i]];
  }
  return sweep;
}

}  // namespace zonestream::sim
