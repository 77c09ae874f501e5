#include "sim/prefetch_simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace zonestream::sim {

PrefetchRoundSimulator::PrefetchRoundSimulator(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const PrefetchSimulatorConfig& config)
    : geometry_(geometry),
      seek_(seek),
      num_streams_(num_streams),
      sizes_(std::move(sizes)),
      config_(config),
      rng_(config.seed),
      buffered_(num_streams, 0) {}

common::StatusOr<PrefetchRoundSimulator> PrefetchRoundSimulator::Create(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    int num_streams, std::shared_ptr<const workload::SizeDistribution> sizes,
    const PrefetchSimulatorConfig& config) {
  if (num_streams <= 0) {
    return common::Status::InvalidArgument("num_streams must be positive");
  }
  if (sizes == nullptr) {
    return common::Status::InvalidArgument("size distribution is null");
  }
  if (config.round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  if (config.buffer_fragments < 0) {
    return common::Status::InvalidArgument(
        "buffer_fragments must be non-negative");
  }
  return PrefetchRoundSimulator(geometry, seek, num_streams, std::move(sizes),
                                config);
}

PrefetchRunResult PrefetchRoundSimulator::Run(int rounds, int warmup) {
  ZS_CHECK_GT(rounds, 0);
  ZS_CHECK_GE(warmup, 0);
  PrefetchRunResult result;

  double buffer_level_sum = 0.0;
  int64_t buffer_level_samples = 0;

  for (int r = 0; r < warmup + rounds; ++r) {
    const bool counted = r >= warmup;

    // 1. Consume: streams with buffered fragments display from the buffer;
    //    the rest must be served this round.
    cylinder_.clear();
    rotation_s_.clear();
    bytes_.clear();
    rate_bps_.clear();
    for (int s = 0; s < num_streams_; ++s) {
      if (buffered_[s] > 0) {
        --buffered_[s];
        continue;
      }
      const disk::DiskPosition position =
          geometry_.SampleUniformPosition(&rng_);
      cylinder_.push_back(position.cylinder);
      rate_bps_.push_back(position.transfer_rate_bps);
      bytes_.push_back(sizes_->Sample(&rng_));
      rotation_s_.push_back(rng_.Uniform(0.0, geometry_.rotation_time()));
    }
    const size_t mandatory = cylinder_.size();
    if (counted) {
      result.mandatory_requests += static_cast<int64_t>(mandatory);
    }

    // 2. Serve the mandatory batch in one SCAN sweep. The requests after
    //    the on-time prefix glitch; the arm ends at the last one served.
    const sched::Arm::Round served = arm_.Serve(
        seek_,
        sched::ScanBatch{mandatory, cylinder_.data(), rotation_s_.data(),
                         bytes_.data(), rate_bps_.data()},
        sched::ServicePolicy::kScan, config_.round_length_s, &sweep_);
    if (counted) {
      result.glitches += static_cast<int64_t>(mandatory - served.on_time);
    }
    int arm = arm_.cylinder();

    // 3. Prefetch into the leftover time: repeatedly serve the stream with
    //    the lowest buffer level (ties by id) until the round ends or all
    //    buffers are full.
    double clock =
        std::fmin(sweep_.total_service_time_s(), config_.round_length_s);
    while (clock < config_.round_length_s) {
      int target = -1;
      for (int s = 0; s < num_streams_; ++s) {
        if (buffered_[s] < config_.buffer_fragments &&
            (target < 0 || buffered_[s] < buffered_[target])) {
          target = s;
        }
      }
      if (target < 0) break;  // every buffer is full
      const disk::DiskPosition position =
          geometry_.SampleUniformPosition(&rng_);
      const double service =
          seek_.SeekTime(std::abs(position.cylinder - arm)) +
          rng_.Uniform(0.0, geometry_.rotation_time()) +
          sizes_->Sample(&rng_) / position.transfer_rate_bps;
      if (clock + service > config_.round_length_s) break;
      clock += service;
      arm = position.cylinder;
      ++buffered_[target];
      if (counted) ++result.prefetched_fragments;
    }
    arm_.MoveTo(arm);

    if (counted) {
      buffer_level_sum +=
          std::accumulate(buffered_.begin(), buffered_.end(), 0.0);
      buffer_level_samples += num_streams_;
    }
  }

  result.rounds = rounds;
  result.stream_rounds = static_cast<int64_t>(rounds) * num_streams_;
  result.glitch_rate =
      static_cast<double>(result.glitches) / result.stream_rounds;
  result.mean_buffer_level =
      buffer_level_samples > 0 ? buffer_level_sum / buffer_level_samples
                               : 0.0;
  return result;
}

}  // namespace zonestream::sim
