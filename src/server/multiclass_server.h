// Class-aware media server (extension X1 at the server layer).
//
// Like MediaServer, but streams belong to declared classes (video, audio,
// ...) with different fragment statistics, and admission checks the
// multi-class transform per phase: a stream of class c is admitted onto
// the least-loaded phase only if that phase's class mix plus one more c
// stream still satisfies b_late(counts, t) <= delta. Every disk therefore
// serves an admissible mix every round, for any interleaving of opens and
// closes.
#ifndef ZONESTREAM_SERVER_MULTICLASS_SERVER_H_
#define ZONESTREAM_SERVER_MULTICLASS_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/multiclass.h"
#include "disk/disk_geometry.h"
#include "disk/seek_model.h"
#include "numeric/random.h"
#include "numeric/statistics.h"
#include "server/media_server.h"
#include "server/striping.h"
#include "workload/fragment_source.h"
#include "workload/size_distribution.h"

namespace zonestream::server {

// Configuration of the class-aware server.
struct MultiClassServerConfig {
  int num_disks = 1;
  double round_length_s = 1.0;
  double late_tolerance = 0.01;  // delta for the per-phase admission check
  uint64_t seed = 42;
};

// Class-aware striped server. Not thread-safe.
class MultiClassMediaServer {
 public:
  // `model` defines the classes and the admission transform; fragment
  // sizes for class c are drawn from a Gamma distribution with that
  // class's moments.
  static common::StatusOr<MultiClassMediaServer> Create(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      std::shared_ptr<const core::MultiClassServiceModel> model,
      const MultiClassServerConfig& config);

  // Opens a stream of the given class; rejects with ResourceExhausted if
  // no phase can absorb it within the tolerance.
  common::StatusOr<int> OpenStream(int class_index);

  common::Status CloseStream(int stream_id);

  void RunRound();
  void RunRounds(int rounds);

  common::StatusOr<StreamStats> GetStreamStats(int stream_id) const;
  ServerStats GetServerStats() const;

  int active_streams() const { return static_cast<int>(streams_.size()); }
  // Active streams of a class across the whole server.
  int active_streams_of_class(int class_index) const;
  // The admission mix currently running on a phase.
  const core::ClassCounts& phase_mix(int phase) const;
  int64_t current_round() const { return round_; }

 private:
  struct StreamState {
    int phase = 0;
    int class_index = 0;
    std::unique_ptr<workload::IidSizeSource> source;
    StreamStats stats;
  };

  MultiClassMediaServer(
      const disk::DiskGeometry& geometry, const disk::SeekTimeModel& seek,
      std::shared_ptr<const core::MultiClassServiceModel> model,
      std::vector<std::shared_ptr<const workload::SizeDistribution>> sizes,
      const MultiClassServerConfig& config);

  disk::DiskGeometry geometry_;
  disk::SeekTimeModel seek_;
  std::shared_ptr<const core::MultiClassServiceModel> model_;
  std::vector<std::shared_ptr<const workload::SizeDistribution>> class_sizes_;
  MultiClassServerConfig config_;
  RoundRobinStriping striping_;
  numeric::Rng rng_;
  int64_t round_ = 0;
  int64_t next_stream_id_ = 0;
  std::vector<core::ClassCounts> phase_mixes_;
  std::map<int, StreamState> streams_;
  std::vector<int> arm_cylinder_;
  std::vector<bool> ascending_;
  int64_t fragments_served_ = 0;
  int64_t total_glitches_ = 0;
  std::vector<numeric::RunningStats> busy_fraction_;
};

}  // namespace zonestream::server

#endif  // ZONESTREAM_SERVER_MULTICLASS_SERVER_H_
