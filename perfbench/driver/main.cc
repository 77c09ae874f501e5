// zs_perfbench: end-to-end benchmark driver for zonestream.
//
//   zs_perfbench --workload admit_wire|serve_array|validate_mc --seed N
//                --seconds S --trace 0|1 [--work-dir DIR]
//
// Every run executes the three phases (admission wire path, serving array,
// Monte Carlo validation), interleaved in slices, and checks their
// outputs; the named workload is the primary phase: it is set up first
// and nine times (setup_s is the median), and it gets half of the S
// seconds. With --trace 0 the last
// stdout line is a JSON object carrying the end-to-end metrics; with
// --trace 1 the run makes an untraced pass and a traced pass of S/2
// seconds each and reports the per-layer metrics, the self time of each
// layer on the main thread, and the tracing overhead (traced minus
// untraced value of each end-to-end metric). Spans are written as TSV to
// the work directory.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "driver/phases.h"
#include "driver/stats.h"
#include "driver/trace.h"

namespace zsbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics gated by BENCHMARK.json bounds (--trace 0), in its
// order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"admit_p50_us", "us"},
    {"op_failed_frac", "ratio"},
    {"mc_rounds_per_s", "rounds/s"},
    {"is_rounds_per_s", "rounds/s"},
};

// End-to-end metrics every run measures and prints, but whose run-to-run
// spread on a small shared VM (0.2-0.5 of the median over ten seeds:
// vCPU stalls decide tail latencies and the ladder, per-vCPU contention
// the single-threaded serving rate) is wider than any bound the benchmark
// may set; BENCHMARK.json lists them with the per-layer metrics, so the
// traced run reports them too.
constexpr MetricSpec kUngatedEndToEnd[] = {
    {"admit_p99_us", "us"},
    {"admit_p99_us_loaded", "us"},
    {"admit_rate_at_slo", "ops/s"},
    {"serve_rounds_per_s", "rounds/s"},
    {"serve_degraded_rounds_per_s", "rounds/s"},
};

// Per-layer metrics the phases report directly (--trace 1), after the
// ungated end-to-end ones.
constexpr MetricSpec kPhaseLayerMetrics[] = {
    {"service.client.call_us.p50", "us"},
    {"service.client.call_us.p99", "us"},
    {"service.protocol.codec_ns", "ns"},
    {"service.admit_ns_p50", "ns"},
    {"service.admit_ns_p99", "ns"},
    {"service.wire_overhead_us", "us"},
    {"service.publish_us", "us"},
    {"service.capacity_reject_frac", "ratio"},
    {"service.overload.shed_requests", "count"},
    {"service.client.retries", "count"},
    {"generator.lag_us_p99", "us"},
    {"server.fragments_per_round", "count"},
    {"server.reconstruct_reads_per_round", "count"},
    {"server.repair_stripes_per_round", "count"},
    {"server.disk_utilization", "ratio"},
    {"recovery.snapshot_us", "us"},
    {"recovery.snapshot_bytes", "bytes"},
    {"obs.hook_overhead_frac", "ratio"},
    {"workload.content_prep_s", "s"},
    {"core.table_build_ms", "ms"},
    {"core.max_streams_us", "us"},
    {"sim.round_ns", "ns"},
    {"sim.is_round_ns", "ns"},
    {"sim.is_ess_frac", "ratio"},
    {"common.pool_busy_frac", "ratio"},
    {"common.pool_block_imbalance", "ratio"},
};

// End-to-end metrics whose tracing overhead the traced run reports.
constexpr MetricSpec kOverheadMetrics[] = {
    {"admit_p50_us", "us"},
    {"admit_p99_us", "us"},
    {"admit_p99_us_loaded", "us"},
    {"admit_rate_at_slo", "ops/s"},
    {"serve_rounds_per_s", "rounds/s"},
    {"serve_degraded_rounds_per_s", "rounds/s"},
    {"mc_rounds_per_s", "rounds/s"},
    {"is_rounds_per_s", "rounds/s"},
};

constexpr const char* kWorkloads[] = {"admit_wire", "serve_array",
                                      "validate_mc"};

using PhaseFactory = std::unique_ptr<Phase> (*)(const PhaseOptions&);

PhaseFactory FactoryFor(const std::string& workload) {
  if (workload == "admit_wire") return MakeAdmitWire;
  if (workload == "serve_array") return MakeServeArray;
  return MakeValidateMc;
}

// Setups: the primary's are repeated for setup_s (the median). A setup is
// 0.1-0.4 s of wall time that host neighbours can stretch by a third, so
// the median needs more than a handful.
constexpr int kPrimarySetups = 9;
// Shares of the measured time: the primary phase, then each other phase.
constexpr double kPrimaryShare = 0.5;
constexpr double kSecondaryShare = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload || args->seconds <= 0.0) return false;
  for (const char* workload : kWorkloads) {
    if (args->workload == workload) return true;
  }
  return false;
}

// One pass over the three phases: set each up (the primary first, nine
// times), then interleave their slices until `seconds` of measurement
// are spent, always running the phase furthest behind its share of the
// time so far, then finish each (final checks and metrics).
struct Pass {
  std::vector<PhaseResult> phases;
  std::vector<double> primary_setup_s;

  const Metric* Find(const std::string& name) const {
    for (const PhaseResult& phase : phases) {
      const auto it = phase.metrics.find(name);
      if (it != phase.metrics.end()) return &it->second;
    }
    return nullptr;
  }
};

Pass RunPass(const Args& args, double seconds, Tracer* tracer) {
  std::vector<std::string> order = {args.workload};
  for (const char* workload : kWorkloads) {
    if (args.workload != workload) order.push_back(workload);
  }
  const std::vector<int> cpus = AllowedCpus();
  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<double> shares;
  for (size_t i = 0; i < order.size(); ++i) {
    PhaseOptions options;
    options.seed = args.seed;
    shares.push_back(i == 0 ? kPrimaryShare : kSecondaryShare);
    options.budget_s = seconds * shares.back();
    options.tracer = tracer;
    options.work_dir = args.work_dir;
    phases.push_back(FactoryFor(order[i])(options));
    const int setups = i == 0 ? kPrimarySetups : 1;
    for (int r = 0; r < setups; ++r) {
      // Like the timed work, each setup runs on the CPU that is fastest at
      // its start; left to the scheduler, a run's setups all sit on the
      // vCPU the process started on, fast or slow.
      const ScopedCpuPin pin(FastestCpu(cpus));
      phases.back()->Setup();
    }
  }
  std::vector<double> used(phases.size(), 0.0);
  const int64_t start = NowNs();
  while (static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    size_t next = phases.size();
    for (size_t i = 0; i < phases.size(); ++i) {
      if (!phases[i]->healthy()) continue;
      if (next == phases.size() ||
          used[i] / shares[i] < used[next] / shares[next]) {
        next = i;
      }
    }
    if (next == phases.size()) break;  // every phase failed
    const int64_t slice_start = NowNs();
    phases[next]->RunSlice();
    used[next] += static_cast<double>(NowNs() - slice_start) * 1e-9;
  }
  Pass pass;
  for (size_t i = 0; i < phases.size(); ++i) {
    phases[i]->Finish();
    Note("%s: %.2f s measured in slices", order[i].c_str(), used[i]);
    pass.phases.push_back(std::move(phases[i]->result()));
  }
  pass.primary_setup_s = pass.phases.front().setup_s;
  return pass;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void AppendJsonMetric(std::string* out, const char* name, double value,
                      const char* unit) {
  if (!std::isfinite(value)) value = 1e12;  // a miss, kept valid JSON
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name, value, unit);
  *out += buffer;
}

}  // namespace
}  // namespace zsbench

int main(int argc, char** argv) {
  using namespace zsbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload admit_wire|serve_array|validate_mc "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  // One malloc arena: the run's short-lived threads (daemon, control, pool
  // workers) would otherwise each take over whichever arena is free, and
  // peak RSS would depend on that order.
  ::mallopt(M_ARENA_MAX, 1);
  // Fixed thresholds: large buffers (a ladder trial's samples) are always
  // mapped and returned on free, and the heap's top is trimmed, instead of
  // glibc raising both with each large free.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ::mallopt(M_TRIM_THRESHOLD, 256 * 1024);

  std::vector<std::string> failures;
  int64_t checks = 0;
  int64_t failed_checks = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto tally = [&](const Pass& pass) {
    for (const PhaseResult& phase : pass.phases) {
      checks += phase.checks;
      failed_checks += phase.failed_checks;
      attempted += phase.attempted;
      failed += phase.failed;
      failures.insert(failures.end(), phase.check_failures.begin(),
                      phase.check_failures.end());
    }
  };

  std::string metrics;
  const auto emit = [&](const char* name, const char* unit,
                        const Metric* metric) {
    if (metric == nullptr) {
      failures.push_back(std::string("metric not measured: ") + name);
      AppendJsonMetric(&metrics, name, 0.0, unit);
      return;
    }
    Note("metric %-36s %.6g %s", name, metric->value, unit);
    AppendJsonMetric(&metrics, name, metric->value, unit);
  };

  if (!args.trace) {
    Pass pass = RunPass(args, args.seconds, nullptr);
    tally(pass);
    const Metric setup{Median(pass.primary_setup_s), "s"};
    const Metric rss{PeakRssMb(), "MB"};
    Note("setup_s: %s over %zu setups of %s",
         FormatSummary(Summarize(pass.primary_setup_s), 1.0, "s").c_str(),
         pass.primary_setup_s.size(), args.workload.c_str());
    for (const MetricSpec& spec : kUngatedEndToEnd) {
      const Metric* metric = pass.Find(spec.name);
      if (metric == nullptr) {
        failures.push_back(std::string("metric not measured: ") + spec.name);
        continue;
      }
      Note("metric %-36s %.6g %s (not gated)", spec.name, metric->value,
           spec.unit);
    }
    for (const MetricSpec& spec : kEndToEnd) {
      const std::string name = spec.name;
      emit(spec.name, spec.unit,
           name == "setup_s"       ? &setup
           : name == "peak_rss_mb" ? &rss
                                   : pass.Find(name));
    }
  } else {
    const double half = args.seconds / 2.0;
    Pass untraced = RunPass(args, half, nullptr);
    tally(untraced);
    Tracer tracer;
    tracer.AttachThisThread("main");
    const int64_t traced_start = NowNs();
    Pass traced;
    {
      ScopedSpan run(SpanId::kRun);
      traced = RunPass(args, half, &tracer);
    }
    Tracer::DetachThisThread();
    tally(traced);

    std::vector<std::pair<std::string, Metric>> derived;
    const auto add = [&](const std::string& name, double value,
                         const char* unit) {
      derived.emplace_back(name, Metric{value, unit});
    };
    const auto median_us = [&](SpanId id) {
      return Median(tracer.Durations(id, true)) * 1e6;
    };
    add("server.round_us", median_us(SpanId::kServerRound), "us");
    add("server.round_us_degraded", median_us(SpanId::kServerRoundDegraded),
        "us");
    add("server.stream_churn_us", median_us(SpanId::kServerChurn), "us");
    // Daemon polls: tag = requests served by that PollOnce.
    {
      std::vector<double> busy_s;
      int64_t polls = 0;
      uint64_t served = 0;
      for (const Span& span : tracer.Spans(SpanId::kDaemonPoll)) {
        ++polls;
        served += span.tag;
        if (span.tag > 0) {
          busy_s.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                           1e-9);
        }
      }
      const auto busy = static_cast<double>(busy_s.size());
      add("service.daemon.poll_busy_us", Median(busy_s) * 1e6, "us");
      add("service.daemon.requests_per_poll",
          busy > 0 ? static_cast<double>(served) / busy : 0.0, "count");
      add("service.daemon.idle_poll_frac",
          polls > 0 ? 1.0 - busy / static_cast<double>(polls) : 0.0, "ratio");
    }
    const std::array<double, kNumLayers> self =
        tracer.SelfTimeByLayer("main");
    double self_sum = 0.0;
    for (int layer = 0; layer < kNumLayers; ++layer) {
      add(std::string("self.") + LayerName(static_cast<Layer>(layer)) + "_s",
          self[static_cast<size_t>(layer)], "s");
      self_sum += self[static_cast<size_t>(layer)];
    }
    const double wall = tracer.RootSeconds("main");
    add("trace.wall_s", wall, "s");
    Note("trace: self times sum to %.6f s of %.6f s traced wall "
         "(harness remainder %.6f s); %lld spans not stored",
         self_sum, wall, self[0], static_cast<long long>(tracer.overflowed()));
    if (std::fabs(self_sum - wall) > 1e-6 * std::max(1.0, wall)) {
      failures.push_back("self times do not sum to the traced wall time");
    }
    add("trace.spans", static_cast<double>(tracer.SpanCount()), "count");
    for (const MetricSpec& spec : kOverheadMetrics) {
      const Metric* with = traced.Find(spec.name);
      const Metric* without = untraced.Find(spec.name);
      add(std::string("trace.overhead.") + spec.name,
          with != nullptr && without != nullptr ? with->value - without->value
                                                : 0.0,
          spec.unit);
      if (with == nullptr || without == nullptr) {
        failures.push_back(std::string("no tracing overhead for ") +
                           spec.name);
      }
    }
    const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(trace_path, traced_start)) {
      failures.push_back("cannot write " + trace_path);
    } else {
      Note("trace: spans written to %s", trace_path.c_str());
    }

    for (const MetricSpec& spec : kUngatedEndToEnd) {
      emit(spec.name, spec.unit, traced.Find(spec.name));
    }
    for (const MetricSpec& spec : kPhaseLayerMetrics) {
      emit(spec.name, spec.unit, traced.Find(spec.name));
    }
    for (const auto& [name, metric] : derived) {
      emit(name.c_str(), metric.unit.c_str(), &metric);
    }
  }

  const bool correct = failures.empty();
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  Note("%lld output checks, %lld failed; %lld operations attempted, %lld "
       "failed",
       static_cast<long long>(checks), static_cast<long long>(failed_checks),
       static_cast<long long>(attempted), static_cast<long long>(failed));
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(1, attempted)),
      static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
