// A one-disk MediaServer is the batched RoundSimulator: with no parity,
// N streams on one Gamma distribution and the same seed, the server draws
// the simulator's variates in the simulator's order (2N position uniforms,
// one size batch, N rotations), serves them through the same SCAN kernel
// and walks the arm the same way, so every round's service time and glitch
// count agree bit for bit, on every SIMD tier the host supports.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "disk/presets.h"
#include "numeric/simd.h"
#include "obs/round_trace.h"
#include "server/media_server.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zonestream::server {
namespace {

using numeric::SimdTier;

// Restores the detected tier when a test exits.
class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier) { numeric::ForceSimdTier(tier); }
  ~ScopedTier() { numeric::ForceSimdTier(numeric::DetectedSimdTier()); }
};

constexpr int kRounds = 1200;
constexpr uint64_t kSeed = 4242;

std::vector<obs::RoundTraceEvent> ServerRounds(
    int streams,
    const std::shared_ptr<const workload::SizeDistribution>& sizes) {
  obs::RoundTraceRecorder trace(kRounds);
  MediaServerConfig config;
  config.num_disks = 1;
  config.round_length_s = 1.0;
  config.per_disk_stream_limit = streams;
  config.seed = kSeed;
  config.trace = &trace;
  auto server = MediaServer::Create(disk::QuantumViking2100(),
                                    disk::QuantumViking2100Seek(), config);
  ZS_CHECK(server.ok());
  for (int i = 0; i < streams; ++i) ZS_CHECK(server->OpenStream(sizes).ok());
  server->RunRounds(kRounds);
  return trace.Snapshot();
}

std::vector<obs::RoundTraceEvent> SimulatorRounds(
    int streams,
    const std::shared_ptr<const workload::SizeDistribution>& sizes) {
  obs::RoundTraceRecorder trace(kRounds);
  sim::SimulatorConfig config;
  config.round_length_s = 1.0;
  config.seed = kSeed;
  config.policy = sched::ServicePolicy::kScan;
  config.trace = &trace;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), streams,
      sim::RoundSimulator::IidFactory(sizes), config);
  ZS_CHECK(simulator.ok());
  for (int r = 0; r < kRounds; ++r) simulator->RunRound();
  return trace.Snapshot();
}

TEST(MediaServerSimEquivalenceTest, OneDiskServerIsTheBatchedSimulator) {
  const auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(200e3, 100e3 * 100e3));
  // 8 and 26 sort on the network; 40 takes the kernel's 64-bit sort.
  for (const int streams : {8, 26, 40}) {
    for (const SimdTier tier :
         {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
      ScopedTier forced(tier);
      SCOPED_TRACE(::testing::Message()
                   << "N=" << streams
                   << " tier=" << numeric::SimdTierName(tier));
      const std::vector<obs::RoundTraceEvent> served =
          ServerRounds(streams, sizes);
      const std::vector<obs::RoundTraceEvent> simulated =
          SimulatorRounds(streams, sizes);
      ASSERT_EQ(served.size(), static_cast<size_t>(kRounds));
      ASSERT_EQ(simulated.size(), static_cast<size_t>(kRounds));
      int64_t glitches = 0;
      for (int r = 0; r < kRounds; ++r) {
        EXPECT_EQ(served[r].service_time_s, simulated[r].service_time_s)
            << "round " << r;
        EXPECT_EQ(served[r].glitches, simulated[r].glitches) << "round " << r;
        glitches += served[r].glitches;
      }
      // Above N_max = 26 the comparison covers the deadline ledger and the
      // late-round arm rule too.
      if (streams > 26) {
        EXPECT_GT(glitches, 0);
      }
    }
  }
}

}  // namespace
}  // namespace zonestream::server
