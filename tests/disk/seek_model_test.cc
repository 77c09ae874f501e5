#include "disk/seek_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/random.h"

namespace zonestream::disk {
namespace {

TEST(SeekModelTest, RejectsInvalidParameters) {
  SeekParameters params = QuantumViking2100SeekParameters();
  params.sqrt_coefficient = -1.0;
  EXPECT_FALSE(SeekTimeModel::Create(params).ok());

  params = QuantumViking2100SeekParameters();
  params.threshold_cylinders = 0;
  EXPECT_FALSE(SeekTimeModel::Create(params).ok());

  params = QuantumViking2100SeekParameters();
  params.sqrt_coefficient = 0.0;
  params.linear_coefficient = 0.0;
  EXPECT_FALSE(SeekTimeModel::Create(params).ok());
}

TEST(SeekModelTest, ZeroDistanceIsFree) {
  const SeekTimeModel model = QuantumViking2100Seek();
  EXPECT_DOUBLE_EQ(model.SeekTime(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.SeekTime(-5.0), 0.0);
}

TEST(SeekModelTest, SqrtRegimeBelowThreshold) {
  const SeekTimeModel model = QuantumViking2100Seek();
  // Table 1: seek(d) = 1.867e-3 + 1.315e-4 sqrt(d) for d < 1344.
  EXPECT_NEAR(model.SeekTime(100.0), 1.867e-3 + 1.315e-4 * 10.0, 1e-12);
  EXPECT_NEAR(model.SeekTime(1.0), 1.867e-3 + 1.315e-4, 1e-12);
}

TEST(SeekModelTest, LinearRegimeAtAndAboveThreshold) {
  const SeekTimeModel model = QuantumViking2100Seek();
  EXPECT_NEAR(model.SeekTime(1344.0), 3.8635e-3 + 2.1e-6 * 1344.0, 1e-12);
  EXPECT_NEAR(model.SeekTime(6000.0), 3.8635e-3 + 2.1e-6 * 6000.0, 1e-12);
}

TEST(SeekModelTest, RegimesRoughlyContinuousAtThreshold) {
  // The Viking's two regimes nearly agree at d = 1344 (by construction of
  // the fit); verify the jump is tiny so the model is physically sane.
  const SeekTimeModel model = QuantumViking2100Seek();
  const double below = model.SeekTime(1343.999);
  const double at = model.SeekTime(1344.0);
  EXPECT_NEAR(below, at, 1e-4);
}

TEST(SeekModelTest, MonotoneInDistance) {
  const SeekTimeModel model = QuantumViking2100Seek();
  double prev = 0.0;
  for (double d = 1.0; d <= 6720.0; d += 13.0) {
    const double s = model.SeekTime(d);
    EXPECT_GT(s, prev * 0.999999) << d;  // non-decreasing
    prev = s;
  }
}

TEST(SeekModelTest, PaperMaxSeekIs18ms) {
  // §4: T_seek^max = 18 ms for the full stroke of 6720 cylinders.
  const SeekTimeModel model = QuantumViking2100Seek();
  EXPECT_NEAR(model.MaxSeekTime(6720), 18e-3, 0.1e-3);
}

// The majorant g must lie over SeekTime at every distance a sweep can
// produce (integers up to twice the stroke, which covers SCAN's
// arm-to-first hop plus the sweep) and be concave, so that Jensen bounds
// n seeks by n * g(D / n). Concavity is checked as non-increasing slopes
// over consecutive unit steps, up to a few ulps of rounding on its
// straight parts.
void ExpectConcaveMajorant(const SeekTimeModel& model, int max_distance,
                           const std::string& label) {
  for (int d = 1; d <= max_distance; ++d) {
    ASSERT_GE(model.SeekTimeMajorant(d), model.SeekTime(d))
        << label << " d=" << d;
  }
  EXPECT_GE(model.SeekTimeMajorant(0.0), 0.0) << label;
  for (int d = 1; d < max_distance; ++d) {
    const double left = model.SeekTimeMajorant(d) -
                        model.SeekTimeMajorant(d - 1);
    const double right = model.SeekTimeMajorant(d + 1) -
                         model.SeekTimeMajorant(d);
    ASSERT_LE(right, left + 1e-15 * model.SeekTimeMajorant(d + 1))
        << label << " d=" << d;
  }
}

SeekParameters Params(double a_sqrt, double b_sqrt, double a_lin,
                      double b_lin, int threshold) {
  SeekParameters params;
  params.sqrt_intercept_s = a_sqrt;
  params.sqrt_coefficient = b_sqrt;
  params.linear_intercept_s = a_lin;
  params.linear_coefficient = b_lin;
  params.threshold_cylinders = threshold;
  return params;
}

TEST(SeekMajorantTest, DominatesAndIsConcaveOnThePresets) {
  // None of the three curves is concave: the Viking's linear slope at its
  // threshold (2.1e-6 s/cyl) is steeper than its sqrt slope (1.79e-6), the
  // fast disk's too and it steps down there, and the small disk steps up.
  const struct {
    const char* name;
    SeekTimeModel seek;
    int cylinders;
  } disks[] = {
      {"viking", QuantumViking2100Seek(),
       QuantumViking2100Parameters().cylinders},
      {"fast", SyntheticFastDiskSeek(),
       SyntheticFastDiskParameters().cylinders},
      {"small", SyntheticSmallDiskSeek(),
       SyntheticSmallDiskParameters().cylinders},
  };
  for (const auto& disk : disks) {
    ExpectConcaveMajorant(disk.seek, 2 * disk.cylinders, disk.name);
  }
}

TEST(SeekMajorantTest, FollowsTheSqrtCurveUpToTheClosedFormKnee) {
  // d1 = min(threshold, (b_sqrt / 2 b_lin)^2, r^2): 980 on the Viking (the
  // slope limit), 1975 on the fast disk and 328 on the small one (where
  // the tangent meets the linear regime at the threshold). Below the knee
  // g is the sqrt curve itself; past it the tangent is strictly above.
  const struct {
    const char* name;
    SeekTimeModel seek;
    int knee;
  } disks[] = {{"viking", QuantumViking2100Seek(), 980},
               {"fast", SyntheticFastDiskSeek(), 1975},
               {"small", SyntheticSmallDiskSeek(), 328}};
  for (const auto& disk : disks) {
    for (int d = 1; d < disk.knee; ++d) {
      ASSERT_EQ(disk.seek.SeekTimeMajorant(d), disk.seek.SeekTime(d))
          << disk.name << " d=" << d;
    }
    EXPECT_GT(disk.seek.SeekTimeMajorant(disk.knee + 1),
              disk.seek.SeekTime(disk.knee + 1))
        << disk.name;
  }
}

TEST(SeekMajorantTest, DominatesAndIsConcaveOnHandBuiltCurves) {
  const struct {
    const char* name;
    SeekParameters params;
  } curves[] = {
      // Continuous, and the linear slope (2e-6) below the sqrt slope at
      // the threshold (2.5e-6): the curve is itself concave.
      {"concave", Params(1e-3, 1e-4, 2.2e-3, 2e-6, 400)},
      {"step_up", Params(1e-3, 1e-4, 4e-3, 2e-6, 400)},
      {"step_down", Params(1e-3, 1e-4, 1e-3, 2e-6, 400)},
      // A steep linear regime: the slope limit sets a knee near 1.
      {"steep_linear", Params(1e-3, 1e-4, 2e-3, 5e-5, 400)},
      {"flat_sqrt", Params(3e-3, 0.0, 2e-3, 2e-6, 400)},
      {"flat_sqrt_low", Params(1e-3, 0.0, 2e-3, 2e-6, 400)},
      {"flat_linear", Params(1e-3, 1e-4, 6e-3, 0.0, 400)},
      {"no_intercepts", Params(0.0, 1e-4, 0.0, 2e-6, 400)},
      {"threshold_one", Params(1e-3, 1e-4, 2e-3, 2e-6, 1)},
  };
  for (const auto& curve : curves) {
    auto model = SeekTimeModel::Create(curve.params);
    ASSERT_TRUE(model.ok()) << curve.name;
    ExpectConcaveMajorant(*model, 5000, curve.name);
  }
}

TEST(SeekMajorantTest, DominatesAndIsConcaveOnRandomParameterSets) {
  // Every parameter set Create accepts: random coefficients on a wide
  // range, each of them zero now and then (not both slopes).
  numeric::Rng rng(2024);
  const auto coefficient = [&rng](double scale) {
    return rng.Uniform01() < 0.15 ? 0.0 : scale * rng.Uniform(0.0, 1.0);
  };
  for (int trial = 0; trial < 300; ++trial) {
    SeekParameters params =
        Params(coefficient(1e-2), coefficient(1e-3), coefficient(1e-2),
               coefficient(1e-5), 1 + static_cast<int>(rng.UniformIndex(3000)));
    if (params.sqrt_coefficient == 0.0 && params.linear_coefficient == 0.0) {
      params.linear_coefficient = 1e-6;
    }
    auto model = SeekTimeModel::Create(params);
    ASSERT_TRUE(model.ok());
    ExpectConcaveMajorant(*model, 8000, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace zonestream::disk
