// Experiment P1 — §5 claims the analytic model is cheap enough that
// admission control runs from a precomputed lookup table with "almost no
// run-time overhead", and that re-evaluating the model (on configuration
// change) is fast. google-benchmark microbenchmarks of every piece of that
// pipeline.
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/exact_tail.h"
#include "core/glitch_model.h"
#include "core/snc.h"
#include "disk/zone_position_sampler.h"
#include "fault/fault_model.h"
#include "numeric/special_functions.h"
#include "obs/metrics.h"
#include "obs/round_trace.h"
#include "server/media_server.h"
#include "service/admission_service.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/rcu.h"
#include "sim/importance_sampling.h"
#include "sim/replication.h"
#include "workload/size_distribution.h"
#include "workload/vbr_trace.h"

namespace zonestream {
namespace {

void BM_LateBound(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.LateBound(n, bench::kRoundLengthS).bound);
  }
}
BENCHMARK(BM_LateBound)->Arg(8)->Arg(26)->Arg(64);

void BM_MaxStreamsByLateProbability(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::MaxStreamsByLateProbability(model, bench::kRoundLengthS, 0.01));
  }
}
BENCHMARK(BM_MaxStreamsByLateProbability);

void BM_SncMaxStreams(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SncMaxStreams(model, bench::kRoundLengthS, 0.01));
  }
}
BENCHMARK(BM_SncMaxStreams);

// The model-exact tail (core/exact_tail.h): one p_late at the paper's
// N = 26, one where the Table 1 tail is already 1, and the limit search
// at delta = 1%, which evaluates n = 1 … 29.
void BM_ExactLateProbability(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ExactLateProbability(model, n, bench::kRoundLengthS).value());
  }
}
BENCHMARK(BM_ExactLateProbability)->Arg(26)->Arg(300);

void BM_ExactMaxStreams(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ExactMaxStreams(model, bench::kRoundLengthS, 0.01).value());
  }
}
BENCHMARK(BM_ExactMaxStreams);

void BM_ErrorBound(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  const core::GlitchModel glitch_model(&model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        glitch_model.ErrorBound(28, bench::kRoundLengthS,
                                bench::kRoundsPerStream,
                                bench::kToleratedGlitches));
  }
}
BENCHMARK(BM_ErrorBound);

void BM_AdmissionTableBuild(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  for (auto _ : state) {
    auto table = core::AdmissionTable::Build(
        model, core::AdmissionCriterion::kGlitchRate, bench::kRoundLengthS,
        {0.001, 0.01, 0.05, 0.1}, bench::kRoundsPerStream,
        bench::kToleratedGlitches);
    benchmark::DoNotOptimize(table.ok());
  }
}
BENCHMARK(BM_AdmissionTableBuild);

void BM_AdmissionTableLookup(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  const auto table = core::AdmissionTable::Build(
      model, core::AdmissionCriterion::kLateProbability,
      bench::kRoundLengthS, {0.001, 0.01, 0.05, 0.1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->MaxStreams(0.02));
  }
}
BENCHMARK(BM_AdmissionTableLookup);

void BM_SimulatedRound(benchmark::State& state) {
  sim::RoundSimulator simulator =
      bench::Table1Simulator(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.RunRound().total_service_time_s);
  }
}
BENCHMARK(BM_SimulatedRound)->Arg(26);

// The same round as the late and glitch estimators run it
// (RoundSimulator::RunRoundLateness): at N = 26 nearly every round is
// proven on time by the seek bound and skips its sort and sweep.
void BM_LatenessRound(benchmark::State& state) {
  sim::RoundSimulator simulator =
      bench::Table1Simulator(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.RunRoundLateness().overran);
  }
}
BENCHMARK(BM_LatenessRound)->Arg(26);

// One scalar O(1) alias-table zone draw on the Table 1 geometry. No round
// executor runs it: they draw whole batches (BM_ZonePositionSample
// below), whose scalar tier repeats this expression per lane.
void BM_ZoneSampleAlias(benchmark::State& state) {
  const disk::DiskGeometry geometry = disk::QuantumViking2100();
  numeric::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry.SampleZoneAlias(rng.Uniform01()));
  }
}
BENCHMARK(BM_ZoneSampleAlias);

// One round's worth (arg) of fragment positions with their zone rates
// through the batched sampler, the call every round executor makes on
// its two uniform batches; reported per batch.
void BM_ZonePositionSample(benchmark::State& state) {
  const disk::DiskGeometry geometry = disk::QuantumViking2100();
  const disk::ZonePositionSampler sampler(geometry);
  const size_t n = static_cast<size_t>(state.range(0));
  numeric::Rng rng(1);
  std::vector<double> u(2 * n);
  rng.FillUniform01(u.data(), u.size());
  std::vector<int> zone(n);
  std::vector<int> cylinder(n);
  std::vector<double> rate(n);
  for (auto _ : state) {
    sampler.Sample(u.data(), u.data() + n, n, zone.data(), cylinder.data(),
                   rate.data());
    benchmark::DoNotOptimize(rate.data());
  }
}
BENCHMARK(BM_ZonePositionSample)->Arg(26);

// One round's worth (arg) of Gamma fragment sizes through the cached
// Marsaglia–Tsang batch sampler; reported per batch.
void BM_GammaBatch(benchmark::State& state) {
  const numeric::GammaBatchSampler sampler(
      bench::kMeanSizeBytes * bench::kMeanSizeBytes / bench::kVarSizeBytes2,
      bench::kVarSizeBytes2 / bench::kMeanSizeBytes);
  numeric::Rng rng(1);
  std::vector<double> out(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    sampler.Fill(&rng, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
}
// 26 is the paper's N_max round; 30, validate_mc's importance-sampling
// size, ends in a partial 8-lane block.
BENCHMARK(BM_GammaBatch)->Arg(26)->Arg(30);

// One Gamma quantile at the shape of the end-to-end benchmark's serve_array
// content, (200/95)^2, cycling through 32 evenly spaced p in (0, 1): the
// VBR generator's copula hands it uniform p, so this is the mean cost per
// frame.
void BM_InverseRegularizedGammaP(benchmark::State& state) {
  const double shape = (200.0 / 95.0) * (200.0 / 95.0);
  constexpr int kPoints = 32;
  size_t i = 0;
  for (auto _ : state) {
    const double p = (static_cast<double>(i++ % kPoints) + 0.5) / kPoints;
    benchmark::DoNotOptimize(numeric::InverseRegularizedGammaP(shape, p));
  }
}
BENCHMARK(BM_InverseRegularizedGammaP);

// One 120 s clip (3000 frames) of serve_array's VBR content: mean
// 200 kB/s, stddev 95 kB/s, scene correlation 0.9.
void BM_VbrTraceGenerate(benchmark::State& state) {
  workload::VbrTraceConfig config;
  config.mean_bandwidth_bps = 200e3;
  config.bandwidth_stddev_bps = 95e3;
  config.scene_correlation = 0.9;
  for (auto _ : state) {
    auto generator = workload::VbrTraceGenerator::Create(config, /*seed=*/7);
    benchmark::DoNotOptimize(generator->Generate(120.0).bandwidth_bps.data());
  }
}
BENCHMARK(BM_VbrTraceGenerate);

// Same round loop with the full observability stack attached (registry
// counters + histograms + trace recorder). The delta against
// BM_SimulatedRound is the per-round instrumentation cost.
void BM_SimulatedRoundWithObs(benchmark::State& state) {
  obs::Registry registry;
  obs::RoundTraceRecorder trace;
  sim::SimulatorConfig config;
  config.round_length_s = bench::kRoundLengthS;
  config.seed = 1;
  config.metrics = &registry;
  config.trace = &trace;
  auto simulator = sim::RoundSimulator::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
      static_cast<int>(state.range(0)),
      sim::RoundSimulator::IidFactory(bench::Table1Sizes()), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator->RunRound().total_service_time_s);
    if (trace.size() > 1 << 18) trace.Clear();
  }
}
BENCHMARK(BM_SimulatedRoundWithObs)->Arg(26);

// One obs::Histogram::Record: the per-sample cost inside the hooks above
// and on the admission service's timed admit. Single-threaded; the values
// cycle through 256 latencies over three decades, so most records move
// neither extreme.
void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram histogram;
  std::vector<double> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1e-6 * std::exp2(static_cast<double>(i % 97) / 10.0);
  }
  size_t next = 0;
  for (auto _ : state) {
    histogram.Record(values[next]);
    next = (next + 1) % values.size();
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramRecord);

// A replicated Monte Carlo batch (arg0 = replications, 25 rounds each)
// through the deterministic sharding path on an explicit pool of arg1
// threads. The estimate is bit-identical across the whole curve; only
// wall time moves. The width-1 entries count every round in cpu_time;
// the wider ones count only the calling thread's share, and on a
// single-core host they measure scheduling overhead.
void BM_ReplicatedLateProbabilityThreads(benchmark::State& state) {
  sim::SimulatorConfig config;
  config.round_length_s = bench::kRoundLengthS;
  common::ThreadPool pool(static_cast<int>(state.range(1)));
  sim::ReplicationOptions options;
  options.replications = static_cast<int>(state.range(0));
  options.pool = &pool;
  for (auto _ : state) {
    auto estimate = sim::EstimateLateProbabilityReplicated(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), 26,
        sim::RoundSimulator::IidFactory(bench::Table1Sizes()), config,
        /*rounds_per_replication=*/25, options);
    benchmark::DoNotOptimize(estimate.ok());
  }
}
BENCHMARK(BM_ReplicatedLateProbabilityThreads)
    ->Args({8, 1})
    ->Args({40, 1})
    ->Args({40, 2})
    ->Args({40, 4});

// Deep-tail p_error (n=24, p_late ~ 7e-6) through the tilted estimator —
// the rare-event path's cost per resolved tail. Each iteration runs
// 8 x 500 importance-sampled rounds (plus one nominal warm-up round per
// sample) and maps the glitch estimate through the exact binomial tail;
// the naive estimator would need ~10^7 rounds for the same CI.
void BM_ImportanceSampledErrorProbability(benchmark::State& state) {
  sim::SimulatorConfig config;
  config.round_length_s = bench::kRoundLengthS;
  sim::ReplicationOptions replication;
  replication.replications = 8;
  sim::ImportanceSamplingOptions options;
  for (auto _ : state) {
    auto estimate = sim::EstimateErrorProbabilityIS(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
        static_cast<int>(state.range(0)), bench::Table1Sizes(), config,
        bench::kRoundsPerStream, bench::kToleratedGlitches,
        /*rounds_per_replication=*/500, replication, options);
    benchmark::DoNotOptimize(estimate.ok());
  }
}
BENCHMARK(BM_ImportanceSampledErrorProbability)->Arg(24);

// One importance-sampled sample — the arm reset, one nominal warm-up
// round and the tilted measured round — at validate_mc's configuration:
// N = 30 on the Table 1 workload at the auto tilt. The estimators above
// repeat this unit; BM_ImportanceSampledErrorProbability prices a whole
// estimate.
void BM_ImportanceSampledRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::SimulatorConfig config;
  config.round_length_s = bench::kRoundLengthS;
  config.seed = 1;
  sim::ImportanceSamplingOptions options;
  auto theta = sim::AutoTiltParameter(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      *bench::Table1Sizes(), bench::kRoundLengthS);
  ZS_CHECK(theta.ok());
  options.theta = *theta;
  auto sampler = sim::ImportanceSampler::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), n,
      bench::Table1Sizes(), config, options);
  ZS_CHECK(sampler.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->RunRound().log_weight);
  }
}
BENCHMARK(BM_ImportanceSampledRound)->Arg(30);

// One degraded parity-array round: N streams per data phase on a 3-disk
// RAID-5 MediaServer with disk 0 down for good, so every round pays the
// full degraded tax — reconstruction fan-out to both survivors plus the
// repair throttle's reconstruction reads (the rebuild target is sized to
// never finish). This is the serving-path cost the degraded admission
// bound (core::MaxStreamsByLateProbabilityDegraded) budgets for.
void BM_DegradedRound(benchmark::State& state) {
  server::MediaServerConfig config;
  config.num_disks = 3;
  config.round_length_s = bench::kRoundLengthS;
  config.per_disk_stream_limit = static_cast<int>(state.range(0));
  config.seed = 1;
  config.parity = true;
  fault::DiskFailureSpec failure;
  failure.fail_at_round = 0;  // permanent
  config.faults.disk_failures.push_back(failure);
  config.fault_disk = 0;
  server::RepairPolicy repair;
  repair.throttle_per_round = 4;
  repair.total_stripes = int64_t{1} << 40;  // stays degraded forever
  repair.read_bytes = bench::kMeanSizeBytes;
  config.repair = repair;
  auto server = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), config);
  ZS_CHECK(server.ok());
  for (int i = 0; i < server->max_streams(); ++i) {
    ZS_CHECK(server->OpenStream(bench::Table1Sizes()).ok());
  }
  for (auto _ : state) {
    server->RunRound();
    benchmark::DoNotOptimize(server->current_round());
  }
}
BENCHMARK(BM_DegradedRound)->Arg(13);

// One intact round of the end-to-end benchmark's serving array: a 4-disk
// RAID-5 MediaServer at the per-disk limit planned for serve_array's
// content (200 kB mean, 95 kB stddev fragments, P(late) <= 0.01), filled
// to capacity. Each disk's sweep runs the SCAN kernel the simulators use
// (sched/scan_kernel.h), so this is the serving-path counterpart of
// BM_SimulatedRound.
void BM_MediaServerRound(benchmark::State& state) {
  constexpr double kMeanBytes = 200e3;
  constexpr double kVarBytes2 = 95e3 * 95e3;
  auto config = server::MediaServer::PlanConfig(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), kMeanBytes,
      kVarBytes2, /*num_disks=*/4, bench::kRoundLengthS,
      /*late_tolerance=*/0.01, /*seed=*/1);
  ZS_CHECK(config.ok());
  config->parity = true;
  auto server = server::MediaServer::Create(
      disk::QuantumViking2100(), disk::QuantumViking2100Seek(), *config);
  ZS_CHECK(server.ok());
  const auto sizes = std::make_shared<workload::GammaSizeDistribution>(
      *workload::GammaSizeDistribution::Create(kMeanBytes, kVarBytes2));
  while (server->OpenStream(sizes).ok()) {
  }
  for (auto _ : state) {
    server->RunRound();
    benchmark::DoNotOptimize(server->current_round());
  }
}
BENCHMARK(BM_MediaServerRound);

// The flattened lock-free table probe (core::AdmissionTableSnapshot) on
// the same 4-row table as BM_AdmissionTableLookup. The pair bounds what
// the RCU-published serving fast path pays for the probe itself — the
// service contract is "within 2x of the raw row lookup".
void BM_AdmissionSnapshotLookup(benchmark::State& state) {
  const core::ServiceTimeModel model = bench::Table1Model();
  const auto table = core::AdmissionTable::Build(
      model, core::AdmissionCriterion::kLateProbability,
      bench::kRoundLengthS, {0.001, 0.01, 0.05, 0.1});
  const core::AdmissionTableSnapshot snapshot(*table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.MaxStreams(0.02));
  }
}
BENCHMARK(BM_AdmissionSnapshotLookup);

// One RCU read-side critical section (enter + read + exit) through the
// thread-local reader cache — the fixed fee every admission fast-path
// operation pays on top of the table probe.
void BM_RcuReadGuard(benchmark::State& state) {
  service::RcuDomain domain;
  service::RcuPtr<int> value(&domain);
  value.Publish(std::make_unique<int>(42));
  for (auto _ : state) {
    service::RcuReadGuard guard(&domain);
    benchmark::DoNotOptimize(*value.Read());
  }
}
BENCHMARK(BM_RcuReadGuard);

// Experiment P2 — the million-session control plane's headline: full
// admit + teardown cycles against a shared AdmissionService from 1/2/4
// threads (lock-free registry insert/erase, occupancy CAS, RCU-guarded
// limit probe, one admit-latency histogram record — the daemon's entire
// fast path except socket I/O). items_per_second counts operations (2
// per cycle); p50_ns/p99_ns are the interpolated admit latency
// percentiles of the service.admit.latency_s histogram. On a single-core
// host the >1-thread entries measure contention overhead, not scaling.
void BM_AdmissionServiceThroughput(benchmark::State& state) {
  static std::unique_ptr<service::AdmissionService> svc;
  static obs::Registry* registry = nullptr;
  if (state.thread_index() == 0) {
    registry = new obs::Registry();
    service::AdmissionServiceConfig config;
    config.classes = {{"gold", 0.001}, {"silver", 0.01}, {"bronze", 0.05}};
    config.registry.capacity = 1 << 20;
    config.metrics = registry;
    auto created = service::AdmissionService::Create(config);
    ZS_CHECK(created.ok());
    svc = std::move(*created);
    // Limits far above thread count x live sessions: the cycle measures
    // the accept path, never the (cheaper) capacity-reject path.
    ZS_CHECK(svc->PublishLimits({1 << 20, 1 << 20, 1 << 20}).ok());
  }
  const uint32_t class_index =
      static_cast<uint32_t>(state.thread_index()) % 3;
  for (auto _ : state) {
    const service::ServiceOutcome admitted = svc->Admit(0, class_index);
    benchmark::DoNotOptimize(admitted.session_id);
    const service::ServiceOutcome torn = svc->Teardown(admitted.session_id);
    benchmark::DoNotOptimize(torn.result);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  if (state.thread_index() == 0) {
    state.counters["p50_ns"] = svc->LatencyQuantile(0.5) * 1e9;
    state.counters["p99_ns"] = svc->LatencyQuantile(0.99) * 1e9;
    svc.reset();
    delete registry;
    registry = nullptr;
  }
}
BENCHMARK(BM_AdmissionServiceThroughput)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// Raw-socket helpers for the flash-crowd benchmark: the burst has to be
// genuinely concurrent (every admit on the wire before any response is
// read), which the synchronous AdmitClient cannot produce.
int ConnectBenchSocket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ZS_CHECK(fd >= 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ZS_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0);
  return fd;
}

void SendAllBench(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ZS_CHECK(n > 0);
    sent += static_cast<size_t>(n);
  }
}

service::Response ReadResponseFrame(int fd, std::string* buffer) {
  for (;;) {
    size_t consumed = 0;
    std::string_view payload;
    const service::FrameParse parse =
        service::NextFrame(*buffer, &consumed, &payload);
    ZS_CHECK(parse != service::FrameParse::kError);
    if (parse == service::FrameParse::kFrame) {
      auto response = service::DecodeResponse(payload);
      ZS_CHECK(response.ok());
      buffer->erase(0, consumed);
      return *response;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ZS_CHECK(n > 0);
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

// Experiment R1 — flash-crowd arrival against the real daemon over its
// unix socket. One iteration is one burst: range(0) clients connect and
// each fires an admit before any response is read, so the per-poll
// request budget (set to half the burst) genuinely bites; admitted
// sessions are then torn down. items_per_second counts burst admits;
// p50_ns/p99_ns are the service's own admit-latency percentiles;
// shed_fraction is the share of requests answered kOverloaded instead
// of served — the overload-hardening tradeoff in one number.
void BM_AdmissionDaemonFlashCrowd(benchmark::State& state) {
  const int crowd = static_cast<int>(state.range(0));
  const std::string socket_path = "/tmp/zs_bench_crowd_" +
                                  std::to_string(::getpid()) + ".sock";
  obs::Registry registry;  // latency is only accumulated with metrics on
  service::AdmissionServiceConfig config;
  config.classes = {{"gold", 0.001}, {"silver", 0.01}, {"bronze", 0.05}};
  config.registry.capacity = 1 << 20;
  config.metrics = &registry;
  auto svc = service::AdmissionService::Create(config);
  ZS_CHECK(svc.ok());
  ZS_CHECK((*svc)->PublishLimits({1 << 20, 1 << 20, 1 << 20}).ok());

  service::DaemonOptions options;
  options.socket_path = socket_path;
  options.poll_interval_ms = 1;
  options.max_connections = 2 * crowd;
  options.max_requests_per_poll = crowd > 1 ? crowd / 2 : 1;
  options.retry_after_ms = 1;
  auto daemon = service::AdmitDaemon::Create(svc->get(), options);
  ZS_CHECK(daemon.ok());
  std::thread serve([&daemon] { (void)(*daemon)->Serve(); });

  service::Request admit;
  admit.op = service::OpCode::kAdmitClass;  // session_id 0: auto-assign
  std::string admit_frame;
  service::AppendFrame(&admit_frame, service::EncodeRequest(admit));

  int64_t burst_requests = 0;
  for (auto _ : state) {
    std::vector<int> fds(static_cast<size_t>(crowd));
    std::vector<std::string> buffers(static_cast<size_t>(crowd));
    for (int c = 0; c < crowd; ++c) {
      fds[static_cast<size_t>(c)] = ConnectBenchSocket(socket_path);
      admit.class_index = static_cast<uint32_t>(c) % 3;
      std::string frame;
      service::AppendFrame(&frame, service::EncodeRequest(admit));
      SendAllBench(fds[static_cast<size_t>(c)], frame);
    }
    for (int c = 0; c < crowd; ++c) {
      const int fd = fds[static_cast<size_t>(c)];
      std::string* buffer = &buffers[static_cast<size_t>(c)];
      const service::Response response = ReadResponseFrame(fd, buffer);
      if (response.status == service::WireStatus::kOk) {
        service::Request teardown;
        teardown.op = service::OpCode::kTeardown;
        teardown.session_id = response.session_id;
        std::string frame;
        service::AppendFrame(&frame, service::EncodeRequest(teardown));
        SendAllBench(fd, frame);
        (void)ReadResponseFrame(fd, buffer);  // kOk or a shed; both fine
      }
      ::close(fd);
    }
    burst_requests += crowd;
  }
  (*daemon)->RequestShutdown();
  serve.join();
  ::unlink(socket_path.c_str());

  state.SetItemsProcessed(burst_requests);
  state.counters["p50_ns"] = (*svc)->LatencyQuantile(0.5) * 1e9;
  state.counters["p99_ns"] = (*svc)->LatencyQuantile(0.99) * 1e9;
  const service::DaemonOverloadStats stats = (*daemon)->overload_stats();
  const double answered = static_cast<double>((*daemon)->requests_served() +
                                              stats.shed_requests);
  state.counters["shed_fraction"] =
      answered > 0
          ? static_cast<double>(stats.shed_requests) / answered
          : 0.0;
}
BENCHMARK(BM_AdmissionDaemonFlashCrowd)->Arg(8)->Arg(32)->UseRealTime();

int64_t ThreadCpuNs(clockid_t clock) {
  timespec now{};
  ZS_CHECK(::clock_gettime(clock, &now) == 0);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

// The admission wire path one request at a time: one persistent
// connection to the real daemon, one admit + teardown pair per iteration,
// each request timed by the client from send to decoded response. With
// no connect()/close() in the loop this is the per-request cost that
// BM_AdmissionDaemonFlashCrowd mixes with per-connection cost. p50_ns /
// p99_ns are client-observed round trips (not the service's internal
// quantiles); daemon_cpu_ns is the daemon thread's CPU time per request,
// which includes whatever it spends waiting awake between requests.
void BM_AdmitRoundTrip(benchmark::State& state) {
  const std::string socket_path = "/tmp/zs_bench_rtt_" +
                                  std::to_string(::getpid()) + ".sock";
  service::AdmissionServiceConfig config;
  config.classes = {{"gold", 0.001}, {"silver", 0.01}, {"bronze", 0.05}};
  config.registry.capacity = 1 << 10;
  auto svc = service::AdmissionService::Create(config);
  ZS_CHECK(svc.ok());
  ZS_CHECK((*svc)->PublishLimits({1 << 10, 1 << 10, 1 << 10}).ok());
  service::DaemonOptions options;
  options.socket_path = socket_path;
  auto daemon = service::AdmitDaemon::Create(svc->get(), options);
  ZS_CHECK(daemon.ok());
  std::thread serve([&daemon] { (void)(*daemon)->Serve(); });
  clockid_t daemon_clock;
  ZS_CHECK(::pthread_getcpuclockid(serve.native_handle(), &daemon_clock) ==
           0);

  const int fd = ConnectBenchSocket(socket_path);
  std::string buffer;
  std::vector<double> round_trip_ns;
  round_trip_ns.reserve(2 * static_cast<size_t>(state.max_iterations));
  const auto round_trip = [&](const std::string& frame) {
    const auto start = std::chrono::steady_clock::now();
    SendAllBench(fd, frame);
    const service::Response response = ReadResponseFrame(fd, &buffer);
    round_trip_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    ZS_CHECK(response.status == service::WireStatus::kOk);
    return response;
  };
  service::Request admit;
  admit.op = service::OpCode::kAdmitClass;  // session_id 0: auto-assign
  std::string admit_frame;
  service::AppendFrame(&admit_frame, service::EncodeRequest(admit));
  service::Request teardown;
  teardown.op = service::OpCode::kTeardown;

  const int64_t cpu_start = ThreadCpuNs(daemon_clock);
  for (auto _ : state) {
    teardown.session_id = round_trip(admit_frame).session_id;
    std::string teardown_frame;
    service::AppendFrame(&teardown_frame, service::EncodeRequest(teardown));
    round_trip(teardown_frame);
  }
  const int64_t daemon_cpu_ns = ThreadCpuNs(daemon_clock) - cpu_start;
  ::close(fd);
  (*daemon)->RequestShutdown();
  serve.join();
  ::unlink(socket_path.c_str());

  const auto requests = static_cast<int64_t>(round_trip_ns.size());
  state.SetItemsProcessed(requests);
  const auto quantile = [&](double q) {
    const auto rank = static_cast<size_t>(q * static_cast<double>(requests));
    const auto nth = round_trip_ns.begin() +
                     static_cast<ptrdiff_t>(std::min(
                         rank, round_trip_ns.size() - 1));
    std::nth_element(round_trip_ns.begin(), nth, round_trip_ns.end());
    return *nth;
  };
  if (requests > 0) {
    state.counters["p50_ns"] = quantile(0.5);
    state.counters["p99_ns"] = quantile(0.99);
    state.counters["daemon_cpu_ns"] =
        static_cast<double>(daemon_cpu_ns) / static_cast<double>(requests);
  }
}
BENCHMARK(BM_AdmitRoundTrip)->UseRealTime();

void BM_ModelBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto model = core::ServiceTimeModel::ForMultiZoneDisk(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(),
        bench::kMeanSizeBytes, bench::kVarSizeBytes2);
    benchmark::DoNotOptimize(model.ok());
  }
}
BENCHMARK(BM_ModelBuild);

}  // namespace
}  // namespace zonestream

// Custom main instead of BENCHMARK_MAIN(): records the pool width the
// replicated estimators will use (workers + caller, after any
// ZONESTREAM_THREADS override) in the JSON context, so a trajectory line
// is attributable to its parallelism.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "zonestream_threads",
      std::to_string(zonestream::common::ThreadPool::DefaultThreads()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
