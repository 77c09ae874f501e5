// Ablation A4 — intra-round scheduling policy: SCAN (the paper's choice)
// vs greedy SSTF vs FCFS, at the same workload and admission levels.
//
// Expected shape: SCAN and SSTF are close (SSTF pays slightly more seek
// on a single batch and has no worst-case bound); FCFS pays a full random
// seek per request and loses several streams of capacity — empirical
// backing for §2.3's "we use the SCAN algorithm to minimize disk seeks"
// and for the [CZ94]/[CL96] independent-seek models really describing a
// FCFS-like system.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "common/table_printer.h"
#include "sched/ordering.h"

namespace zonestream {
namespace {

double SimulatedPlate(int n, sched::ServicePolicy policy, int rounds,
                      uint64_t seed) {
  sim::SimulatorConfig config;
  config.round_length_s = bench::kRoundLengthS;
  config.seed = seed;
  config.policy = policy;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      sim::RoundSimulator::IidFactory(bench::Table1Sizes()), config);
  ZS_CHECK(simulator.ok());
  return simulator->EstimateLateProbability(rounds).point;
}

void RunOrderingAblation() {
  const int rounds = bench::ScaledCount(40000);
  common::TablePrinter table(
      "Ablation A4: simulated p_late by intra-round service order "
      "(Table 1 disk, t = 1 s)");
  table.SetHeader({"N", "SCAN (paper)", "SSTF", "FCFS"});
  for (int n : {20, 22, 24, 26, 28, 30}) {
    table.AddRow(
        {std::to_string(n),
         common::FormatProbability(SimulatedPlate(
             n, sched::ServicePolicy::kScan, rounds, 7000 + n)),
         common::FormatProbability(SimulatedPlate(
             n, sched::ServicePolicy::kSstf, rounds, 7000 + n)),
         common::FormatProbability(SimulatedPlate(
             n, sched::ServicePolicy::kFcfs, rounds, 7000 + n))});
  }
  table.Print();

  // Empirical capacity at 1% per policy.
  std::printf("\nSimulated capacity at p_late <= 1%%:");
  for (auto [name, policy] :
       {std::pair<const char*, sched::ServicePolicy>{"SCAN",
                                                      sched::ServicePolicy::kScan},
        {"SSTF", sched::ServicePolicy::kSstf},
        {"FCFS", sched::ServicePolicy::kFcfs}}) {
    int capacity = 0;
    for (int n = 10; n <= 36; ++n) {
      if (SimulatedPlate(n, policy, rounds / 2, 7500 + n) > 0.01) break;
      capacity = n;
    }
    std::printf("  %s = %d", name, capacity);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace zonestream

int main() {
  zonestream::RunOrderingAblation();
  return 0;
}
