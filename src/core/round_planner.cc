#include "core/round_planner.h"

#include <cmath>

#include "common/check.h"
#include "core/admission.h"
#include "core/service_time_model.h"
#include "workload/size_distribution.h"

namespace zonestream::core {
namespace {

common::Status ValidateInputs(const PlannedStream& stream,
                              const PlannerQos& qos) {
  if (stream.bandwidth_bps <= 0.0) {
    return common::Status::InvalidArgument("bandwidth must be positive");
  }
  if (stream.coefficient_of_variation <= 0.0) {
    return common::Status::InvalidArgument("CV must be positive");
  }
  if (qos.session_s <= 0.0 || qos.glitch_rate <= 0.0 ||
      qos.glitch_rate >= 1.0 || qos.epsilon <= 0.0 || qos.epsilon >= 1.0) {
    return common::Status::InvalidArgument("invalid QoS contract");
  }
  return common::Status::Ok();
}

}  // namespace

common::StatusOr<RoundPlan> EvaluateRoundLength(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    const PlannedStream& stream, const PlannerQos& qos,
    double round_length_s) {
  ZS_RETURN_IF_ERROR(ValidateInputs(stream, qos));
  if (round_length_s <= 0.0) {
    return common::Status::InvalidArgument("round length must be positive");
  }
  // Fragments hold one round of display: moments scale with t.
  const double mean = stream.bandwidth_bps * round_length_s;
  const double sd = stream.coefficient_of_variation * mean;
  auto model =
      ServiceTimeModel::ForMultiZoneDisk(geometry, seek, mean, sd * sd);
  if (!model.ok()) return model.status();

  const int rounds = static_cast<int>(
      std::ceil(qos.session_s / round_length_s - 1e-12));
  const int tolerated = std::max(
      1, static_cast<int>(std::floor(qos.glitch_rate * rounds)));

  RoundPlan plan;
  plan.round_length_s = round_length_s;
  plan.fragment_mean_bytes = mean;
  plan.streams_per_disk = MaxStreamsByGlitchRate(*model, round_length_s,
                                                 rounds, tolerated,
                                                 qos.epsilon);
  plan.startup_latency_s = round_length_s;
  const auto sizes = workload::GammaSizeDistribution::Create(mean, sd * sd);
  ZS_CHECK(sizes.ok());
  plan.client_buffer_bytes = 2.0 * sizes->Quantile(0.999);
  return plan;
}

common::StatusOr<std::vector<RoundPlan>> SweepRoundLengths(
    const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
    const PlannedStream& stream, const PlannerQos& qos,
    const std::vector<double>& round_lengths_s) {
  if (round_lengths_s.empty()) {
    return common::Status::InvalidArgument("no round lengths given");
  }
  std::vector<RoundPlan> plans;
  plans.reserve(round_lengths_s.size());
  for (double t : round_lengths_s) {
    auto plan = EvaluateRoundLength(geometry, seek, stream, qos, t);
    if (!plan.ok()) return plan.status();
    plans.push_back(*std::move(plan));
  }
  return plans;
}

}  // namespace zonestream::core
