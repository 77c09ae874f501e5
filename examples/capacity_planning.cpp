// Capacity planning: how many disks does a target service need, and how
// should the round length be chosen?
//
// Scenario: a teleteaching service must sustain a target number of
// concurrent 2 Mbit/s streams with a per-stream glitch contract. The tool
// sweeps the round length (the one architectural knob that requires
// re-fragmenting all content, §2.3), reports per-disk capacity, startup
// latency and buffer demand at each setting, and derives the disk count.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table_printer.h"
#include "core/round_planner.h"
#include "disk/presets.h"

using namespace zonestream;  // example code; libraries never do this

int main(int argc, char** argv) {
  const int target_streams = argc > 1 ? std::atoi(argv[1]) : 200;
  if (target_streams <= 0) {
    std::fprintf(stderr, "usage: %s [target_streams > 0]\n", argv[0]);
    return 1;
  }

  // A 2 Mbit/s stream consumes 250 KB per second of display time; assume
  // VBR with a coefficient of variation of 0.5 (MPEG-2 like).
  core::PlannedStream stream;
  stream.bandwidth_bps = 250e3;
  stream.coefficient_of_variation = 0.5;
  core::PlannerQos qos;
  qos.session_s = 1800.0;  // 30-minute lectures
  qos.glitch_rate = 0.01;  // <=1% of rounds may glitch
  qos.epsilon = 0.01;      // with 99% confidence per stream

  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();

  std::printf(
      "Target: %d concurrent 2 Mbit/s streams, %0.f-minute sessions, at "
      "most %.0f%% glitchy rounds per stream with %.0f%% confidence\n\n",
      target_streams, qos.session_s / 60.0, 100.0 * qos.glitch_rate,
      100.0 * (1.0 - qos.epsilon));

  // Per round length: fragments hold one round of display time, the
  // session spans ceil(session / t) rounds, and a client buffers the
  // fragment being displayed plus the one in flight (§2: "the server
  // delivers a fragment before the previous one is consumed"), each sized
  // for a 99.9th-percentile fragment.
  const auto plans = core::SweepRoundLengths(viking, seek, stream, qos,
                                             {0.25, 0.5, 1.0, 2.0, 4.0});
  if (!plans.ok()) {
    std::fprintf(stderr, "planner: %s\n", plans.status().ToString().c_str());
    return 1;
  }

  common::TablePrinter table("Round-length sweep (Quantum Viking 2.1 disks)");
  table.SetHeader({"round [s]", "frag mean [KB]", "N_max/disk", "disks",
                   "startup [s]", "client buffer [KB]"});

  for (const core::RoundPlan& plan : *plans) {
    const std::string round = common::FormatDouble(plan.round_length_s, 3);
    const std::string mean_kb =
        common::FormatFixed(plan.fragment_mean_bytes / 1e3, 0);
    const int per_disk = plan.streams_per_disk;
    if (per_disk == 0) {
      table.AddRow({round, mean_kb, "0", "-", "-", "-"});
      continue;
    }
    const int disks =
        (target_streams + per_disk - 1) / per_disk;  // ceil division
    table.AddRow({round, mean_kb, std::to_string(per_disk),
                  std::to_string(disks),
                  common::FormatDouble(plan.startup_latency_s, 3),
                  common::FormatFixed(plan.client_buffer_bytes / 1e3, 0)});
  }
  table.Print();

  std::printf(
      "\nReading the table: longer rounds amortize seek/rotation overhead "
      "(more streams per disk, fewer disks) but raise startup latency and "
      "client buffer demand linearly — the paper's configuration knob in "
      "action.\n");
  return 0;
}
