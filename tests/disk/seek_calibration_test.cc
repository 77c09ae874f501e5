#include "disk/seek_calibration.h"

#include <cmath>
#include <optional>
#include <random>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/random.h"

namespace zonestream::disk {
namespace {

std::vector<SeekMeasurement> SampleViking(int step, double noise_sd,
                                          uint64_t seed) {
  const SeekTimeModel truth = QuantumViking2100Seek();
  numeric::Rng rng(seed);
  // A normal law needs a positive standard deviation.
  std::optional<std::normal_distribution<double>> noise;
  if (noise_sd > 0.0) noise.emplace(0.0, noise_sd);
  std::vector<SeekMeasurement> samples;
  for (int d = step; d <= 6720; d += step) {
    SeekMeasurement sample;
    sample.distance_cylinders = d;
    sample.seek_time_s =
        truth.SeekTime(d) + (noise ? (*noise)(rng.engine()) : 0.0);
    if (sample.seek_time_s <= 0.0) sample.seek_time_s = 1e-5;
    samples.push_back(sample);
  }
  return samples;
}

TEST(SeekCalibrationTest, Validation) {
  EXPECT_FALSE(FitSeekModel({}).ok());
  std::vector<SeekMeasurement> few = {{10.0, 1e-3}, {20.0, 2e-3},
                                      {30.0, 3e-3}};
  EXPECT_FALSE(FitSeekModel(few).ok());
  std::vector<SeekMeasurement> bad = SampleViking(500, 0.0, 1);
  bad[0].seek_time_s = -1.0;
  EXPECT_FALSE(FitSeekModel(bad).ok());
}

TEST(SeekCalibrationTest, RecoversVikingFromCleanSamples) {
  const auto fit = FitSeekModel(SampleViking(50, 0.0, 2));
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const SeekParameters truth = QuantumViking2100SeekParameters();
  EXPECT_NEAR(fit->parameters.sqrt_intercept_s, truth.sqrt_intercept_s,
              0.1e-3);
  EXPECT_NEAR(fit->parameters.sqrt_coefficient, truth.sqrt_coefficient,
              0.1e-4);
  EXPECT_NEAR(fit->parameters.linear_intercept_s, truth.linear_intercept_s,
              0.1e-3);
  EXPECT_NEAR(fit->parameters.linear_coefficient, truth.linear_coefficient,
              0.2e-6);
  EXPECT_NEAR(fit->parameters.threshold_cylinders, truth.threshold_cylinders,
              150);
  EXPECT_LT(fit->rmse_s, 1e-4);
}

TEST(SeekCalibrationTest, RobustToMeasurementNoise) {
  // 0.2 ms measurement noise: the fitted curve must track the truth to a
  // fraction of a millisecond across the whole stroke.
  const auto fit = FitSeekModel(SampleViking(25, 0.2e-3, 3));
  ASSERT_TRUE(fit.ok());
  const auto fitted = SeekTimeModel::Create(fit->parameters);
  ASSERT_TRUE(fitted.ok());
  const SeekTimeModel truth = QuantumViking2100Seek();
  for (int d = 100; d <= 6700; d += 300) {
    EXPECT_NEAR(fitted->SeekTime(d), truth.SeekTime(d), 0.4e-3) << d;
  }
}

TEST(SeekCalibrationTest, FittedModelPlugsIntoPresetsPipeline) {
  const auto fit = FitSeekModel(SampleViking(100, 0.1e-3, 4));
  ASSERT_TRUE(fit.ok());
  // The fitted parameters construct a valid SeekTimeModel (verified by
  // FitSeekModel itself); its full-stroke seek is near the Viking's 18 ms.
  const auto model = SeekTimeModel::Create(fit->parameters);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->MaxSeekTime(6720), 18e-3, 1e-3);
}

TEST(SeekCalibrationTest, UnsortedInputHandled) {
  auto samples = SampleViking(80, 0.0, 5);
  std::reverse(samples.begin(), samples.end());
  const auto fit = FitSeekModel(std::move(samples));
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->rmse_s, 1e-4);
}

}  // namespace
}  // namespace zonestream::disk
