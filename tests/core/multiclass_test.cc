#include "core/multiclass.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "disk/presets.h"

namespace zonestream::core {
namespace {

constexpr double kRound = 1.0;

std::vector<StreamClass> VideoAudioClasses() {
  return {
      {"video", 200e3, 100e3 * 100e3},  // Table 1 video
      {"audio", 16e3, 4e3 * 4e3},       // 128 kbit/s audio
  };
}

MultiClassServiceModel TestModel() {
  auto model = MultiClassServiceModel::Create(disk::QuantumViking2100(),
                                              disk::QuantumViking2100Seek(),
                                              VideoAudioClasses());
  ZS_CHECK(model.ok());
  return *std::move(model);
}

TEST(MultiClassTest, CreateValidation) {
  EXPECT_FALSE(MultiClassServiceModel::Create(disk::QuantumViking2100(),
                                              disk::QuantumViking2100Seek(),
                                              {})
                   .ok());
  EXPECT_FALSE(MultiClassServiceModel::Create(
                   disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
                   {{"bad", 0.0, 1.0}})
                   .ok());
}

TEST(MultiClassTest, SingleClassMatchesServiceTimeModel) {
  // With one class, the multiclass transform must coincide with the §3.2
  // model at every level.
  auto multi = MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      {{"video", 200e3, 1e10}});
  ASSERT_TRUE(multi.ok());
  auto single = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ASSERT_TRUE(single.ok());
  for (int n : {1, 10, 26, 30}) {
    EXPECT_NEAR(multi->LateBound({n}, kRound).bound,
                single->LateBound(n, kRound).bound,
                1e-9 * single->LateBound(n, kRound).bound + 1e-15)
        << n;
    EXPECT_NEAR(multi->Moments({n}).mean_s, single->Moments(n).mean_s, 1e-12);
    EXPECT_NEAR(multi->Moments({n}).variance_s2,
                single->Moments(n).variance_s2, 1e-15);
  }
}

TEST(MultiClassTest, TotalStreamsAndSeekBound) {
  const MultiClassServiceModel model = TestModel();
  EXPECT_EQ(MultiClassServiceModel::TotalStreams({3, 4}), 7);
  EXPECT_DOUBLE_EQ(model.SeekBound({3, 4}), model.SeekBound({7, 0}));
}

TEST(MultiClassTest, LogMgfAdditiveAcrossClasses) {
  const MultiClassServiceModel model = TestModel();
  const double theta = 30.0;
  // The class transfer parts add: logM({a,b}) - seek/rot parts decompose.
  const double mix = model.LogMgf({2, 3}, theta);
  const double video_only = model.LogMgf({2, 0}, theta);
  const double audio_only = model.LogMgf({0, 3}, theta);
  // Subtract the double-counted seek and rotation terms.
  const double seek_mix = theta * model.SeekBound({2, 3});
  const double seek_v = theta * model.SeekBound({2, 0});
  const double seek_a = theta * model.SeekBound({0, 3});
  EXPECT_NEAR(mix - seek_mix,
              (video_only - seek_v) + (audio_only - seek_a), 1e-9);
}

TEST(MultiClassTest, AudioStreamsAreCheaper) {
  const MultiClassServiceModel model = TestModel();
  // Swapping a video stream for an audio stream must loosen the bound.
  const double video_heavy = model.LateBound({26, 0}, kRound).bound;
  const double mixed = model.LateBound({25, 1}, kRound).bound;
  EXPECT_LT(mixed, video_heavy);
  // And audio-only capacity far exceeds video-only capacity.
  const int video_max = model.MaxAdditionalStreams({0, 0}, 0, kRound, 0.01);
  const int audio_max = model.MaxAdditionalStreams({0, 0}, 1, kRound, 0.01);
  EXPECT_GT(audio_max, 2 * video_max);
}

TEST(MultiClassTest, AdmissibleConsistentWithLateBound) {
  const MultiClassServiceModel model = TestModel();
  EXPECT_TRUE(model.Admissible({0, 0}, kRound, 0.01));
  const int video_max = model.MaxAdditionalStreams({0, 0}, 0, kRound, 0.01);
  EXPECT_TRUE(model.Admissible({video_max, 0}, kRound, 0.01));
  EXPECT_FALSE(model.Admissible({video_max + 1, 0}, kRound, 0.01));
}

TEST(MultiClassTest, SoloVideoCapacityMatchesPaperModel) {
  const MultiClassServiceModel model = TestModel();
  // Class 0 is exactly the Table 1 workload: solo capacity must be the
  // paper's N_max = 26.
  EXPECT_EQ(model.MaxAdditionalStreams({0, 0}, 0, kRound, 0.01), 26);
}

TEST(MultiClassTest, MaxAdditionalStreamsInvalidQueriesReturnZero) {
  // The search validates (t, delta) first: delta = 0 used to abort in
  // Admissible, and delta = 1 returned the cap.
  const MultiClassServiceModel model = TestModel();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(model.MaxAdditionalStreams({0, 0}, 0, kRound, 0.0), 0);
  EXPECT_EQ(model.MaxAdditionalStreams({0, 0}, 1, kRound, 1.0), 0);
  EXPECT_EQ(model.MaxAdditionalStreams({3, 0}, 1, kRound, nan), 0);
  EXPECT_EQ(model.MaxAdditionalStreams({3, 0}, 1, nan, 0.01), 0);
  EXPECT_EQ(model.MaxAdditionalStreams({0, 0}, 0, 0.0, 0.01), 0);
  // The added count stops at the cap; the base is not counted.
  EXPECT_EQ(model.MaxAdditionalStreams({10, 0}, 0, kRound, 0.01), 16);
  EXPECT_EQ(model.MaxAdditionalStreams({10, 0}, 0, kRound, 0.01, 5), 5);
}

TEST(MultiClassTest, CapacityFrontierMonotone) {
  const MultiClassServiceModel model = TestModel();
  const auto frontier = model.CapacityFrontier(kRound, 0.01);
  ASSERT_FALSE(frontier.empty());
  EXPECT_EQ(frontier.front().first, 0);
  // As video count grows, admissible audio count shrinks (weakly).
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_EQ(frontier[i].first, static_cast<int>(i));
    EXPECT_LE(frontier[i].second, frontier[i - 1].second);
  }
  // Endpoints: all-audio capacity at n0=0; zero audio at max video.
  EXPECT_GT(frontier.front().second, 100);  // audio fragments are tiny
  EXPECT_EQ(frontier.back().first, 26);
}

TEST(MultiClassTest, GlitchBoundBelowLateBound) {
  const MultiClassServiceModel model = TestModel();
  const ClassCounts counts = {20, 40};
  EXPECT_LE(model.GlitchBoundPerRound(counts, kRound),
            model.LateBound(counts, kRound).bound + 1e-12);
}

TEST(MultiClassTest, SingleClassGlitchBoundMatchesGlitchModel) {
  auto multi = MultiClassServiceModel::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      {{"video", 200e3, 1e10}});
  ASSERT_TRUE(multi.ok());
  auto single = ServiceTimeModel::ForMultiZoneDisk(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 200e3, 1e10);
  ASSERT_TRUE(single.ok());
  const GlitchModel glitch_model(&*single);
  for (int n : {10, 26}) {
    EXPECT_NEAR(multi->GlitchBoundPerRound({n}, kRound),
                glitch_model.GlitchBoundPerRound(n, kRound),
                1e-6 * glitch_model.GlitchBoundPerRound(n, kRound))
        << n;
  }
}

TEST(MultiClassTest, ErrorBoundMatchesBinomialTail) {
  const MultiClassServiceModel model = TestModel();
  const ClassCounts counts = {26, 10};
  const double b_glitch = model.GlitchBoundPerRound(counts, kRound);
  EXPECT_DOUBLE_EQ(model.ErrorBound(counts, kRound, 1200, 12),
                   BinomialTailChernoff(1200, b_glitch, 12));
}

TEST(MultiClassTest, ThetaMaxIsBindingClass) {
  const MultiClassServiceModel model = TestModel();
  // Only classes present in the mix constrain theta.
  const double video_only = model.ThetaMax({1, 0});
  const double audio_only = model.ThetaMax({0, 1});
  EXPECT_DOUBLE_EQ(model.ThetaMax({1, 1}), std::fmin(video_only, audio_only));
}

}  // namespace
}  // namespace zonestream::core
