// admit_wire: the admission control plane driven over its wire protocol.
//
// One generator thread sends admit-by-class, admit-by-tolerance, teardown,
// transition, and occasional stats/digest requests, open loop at fixed
// rates, round-robin over three persistent unix-socket connections to an
// in-process AdmitDaemon. Each request is timed from when it was due, so a
// stall shows up in every request queued behind it. A control thread
// republishes the admission table and the limit scale over RCU while the
// traffic runs. Limits are a real Viking AdmissionTable times a scale, and
// the mix admits more than it tears down, so occupancy sits at the limit
// and both the accept and the capacity-reject paths run.
//
// Threads: generator (main), daemon, control. Connections: three
// generator sockets plus one AdmitClient for the final checks.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/service_time_model.h"
#include "disk/presets.h"
#include "driver/phases.h"
#include "obs/metrics.h"
#include "service/admission_service.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"

namespace zsbench {
namespace {

using service::OpCode;
using service::WireStatus;

constexpr double kMeanBytes = 200e3;  // Table 1 fragment statistics
constexpr double kVarBytes2 = 100e3 * 100e3;
constexpr double kRoundLengthS = 1.0;

struct ClassSpec {
  const char* name;
  double tolerance;
};
constexpr ClassSpec kClasses[] = {
    {"gold", 1e-3}, {"silver", 1e-2}, {"bronze", 5e-2}};
constexpr int kNumClasses = 3;
constexpr int64_t kLimitScale = 4;

constexpr int kConnections = 3;
// Open-loop operating points (requests/s) and the latency limit; recorded
// in BENCHMARK.json and perfbench/README.md.
constexpr double kLightRate = 50000.0;
constexpr double kLoadedRate = 250000.0;
constexpr double kSloS = 1e-3;
// Requests per measurement segment: ~48% are admits, so a segment holds
// >= 1000 admits and its p99 has >= 10 samples beyond it.
constexpr int64_t kSegmentRequests = 2100;
// The ladder: kLadderBase * 2^(k/8), k = 0..kLadderPoints-1 (50k/s to
// 3.2M/s). Each search bisects it, which finds the same highest passing
// point as a full ascent when passing is monotone in the rate, in about
// six probes instead of dozens.
constexpr double kLadderBase = 50000.0;
constexpr int kLadderPoints = 49;
constexpr double kLadderPointsPerOctave = 8.0;
// The ladder is searched kLadderRuns times, spread over the run; the
// metric is the median of their results.
constexpr int kLadderRuns = 7;
// Each ladder point runs kLadderTrials trials of at least
// kLadderTrialRequests requests and kLadderTrialSeconds (long enough for a
// growing backlog to break the limit) and passes when a majority of them
// meet the limit; a failed point is attempted once more before it counts,
// so a scheduling stall of the host does not decide it.
constexpr int kLadderTrials = 3;
constexpr int64_t kLadderTrialRequests = 1000;
constexpr double kLadderTrialSeconds = 0.025;
// Light and loaded traffic runs in chunks of about this many seconds; the
// light rate gets 60% of the non-ladder time.
constexpr double kChunkSeconds = 0.15;
constexpr double kLightShare = 0.6;
constexpr int64_t kWarmupRequests = 10000;
// A request unanswered this long has failed (timeout).
constexpr int64_t kTimeoutNs = 2'000'000'000;
constexpr int kPublishPeriodMs = 20;
// Traced runs record a request-scoped span for every kRequestSpanEvery-th
// request (sampling keeps the span count bounded at ladder rates).
constexpr uint64_t kRequestSpanEvery = 8;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-thousand op mix.
enum class Op : uint8_t {
  kAdmitClass,
  kAdmitTolerance,
  kTeardown,
  kTransition,
  kStats,
  kDigest,
  kPing,  // wakes the daemon's poll when a slice ends; not measured
};
constexpr int kMixAdmitClass = 320;
constexpr int kMixAdmitTolerance = 160;
constexpr int kMixTeardown = 350;
constexpr int kMixTransition = 168;
constexpr int kMixStats = 1;  // the rest (1) are digest reads

// Tolerance requests and the class each resolves to (largest class
// tolerance <= request).
struct ToleranceChoice {
  double tolerance;
  uint32_t cls;
};
constexpr ToleranceChoice kToleranceChoices[] = {
    {1e-3, 0}, {2e-3, 0}, {1e-2, 1}, {3e-2, 1}, {5e-2, 2}, {0.2, 2}};

bool IsAdmit(Op op) {
  return op == Op::kAdmitClass || op == Op::kAdmitTolerance;
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Everything the phase sets up: table, service, daemon, generator
// connections and the checking client. No threads: a slice starts them.
struct AdmitStack {
  std::optional<core::AdmissionTable> table;
  std::vector<int64_t> expected_limit;  // per class
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<service::AdmissionService> service;
  std::unique_ptr<service::AdmitDaemon> daemon;
  std::vector<int> fds;
  std::unique_ptr<service::AdmitClient> client;
  std::string socket_path;
  double table_build_s = 0.0;

  AdmitStack() = default;
  AdmitStack(const AdmitStack&) = delete;
  AdmitStack& operator=(const AdmitStack&) = delete;

  ~AdmitStack() {
    client.reset();
    for (const int fd : fds) ::close(fd);
    daemon.reset();
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
  }
};

// The daemon thread of one slice: the loop Serve() runs (PollOnce, and a
// metrics flush every 16 polls), made stoppable so the thread can end with
// the slice. Each poll is a span tagged with the requests it served.
void DaemonLoop(service::AdmitDaemon* daemon,
                service::AdmissionService* service, Tracer* tracer, int cpu,
                const std::atomic<bool>* stop) {
  PinThisThread(cpu);
  if (tracer != nullptr) tracer->AttachThisThread("daemon");
  const int poll_interval_ms = service::DaemonOptions{}.poll_interval_ms;
  int64_t iterations = 0;
  while (!stop->load(std::memory_order_acquire)) {
    ScopedSpan span(SpanId::kDaemonPoll, 0);
    const int64_t before = daemon->requests_served();
    daemon->PollOnce(poll_interval_ms);
    span.set_tag(static_cast<uint64_t>(daemon->requests_served() - before));
    if (++iterations % 16 == 0) service->FlushObservability();
  }
  service->FlushObservability();
  Tracer::DetachThisThread();
}

common::Status BuildStack(const PhaseOptions& options, int repetition,
                          AdmitStack* stack) {
  const disk::DiskGeometry viking = disk::QuantumViking2100();
  const disk::SeekTimeModel seek = disk::QuantumViking2100Seek();
  std::optional<core::ServiceTimeModel> model;
  {
    ScopedSpan span(SpanId::kCoreModel);
    auto built = core::ServiceTimeModel::ForMultiZoneDisk(
        viking, seek, kMeanBytes, kVarBytes2);
    if (!built.ok()) return built.status();
    model.emplace(*std::move(built));
  }
  {
    ScopedSpan span(SpanId::kCoreTableBuild);
    const int64_t start = NowNs();
    common::ThreadPool pool(1);  // explicit width: no hidden global pool
    core::AdmissionBuildOptions build;
    build.pool = &pool;
    // A deployment table: 4 rows per decade from 1e-6 to 1e-1.
    std::vector<double> tolerances;
    for (int k = 0; k <= 20; ++k) {
      tolerances.push_back(std::pow(10.0, -6.0 + k / 4.0));
    }
    auto table = core::AdmissionTable::Build(
        *model, core::AdmissionCriterion::kLateProbability, kRoundLengthS,
        tolerances, 0, 0, build);
    if (!table.ok()) return table.status();
    stack->table.emplace(*std::move(table));
    stack->table_build_s = static_cast<double>(NowNs() - start) * 1e-9;
  }
  for (const ClassSpec& spec : kClasses) {
    stack->expected_limit.push_back(
        static_cast<int64_t>(stack->table->MaxStreams(spec.tolerance)) *
        kLimitScale);
  }
  {
    ScopedSpan span(SpanId::kServiceCreate);
    stack->registry = std::make_unique<obs::Registry>();
    service::AdmissionServiceConfig config;
    for (const ClassSpec& spec : kClasses) {
      config.classes.push_back({spec.name, spec.tolerance});
    }
    config.limit_scale = kLimitScale;
    // Sized for the ~300 sessions this workload keeps live, with headroom:
    // stats and digest reads walk every slot.
    config.registry.capacity = 1 << 16;
    config.metrics = stack->registry.get();
    auto created = service::AdmissionService::Create(config);
    if (!created.ok()) return created.status();
    stack->service = *std::move(created);
    stack->service->PublishTable(*stack->table);
  }
  {
    ScopedSpan span(SpanId::kDaemonCreate);
    stack->socket_path = options.work_dir + "/admit-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(repetition) + ".sock";
    service::DaemonOptions daemon_options;
    daemon_options.socket_path = stack->socket_path;
    daemon_options.metrics = stack->registry.get();
    auto daemon =
        service::AdmitDaemon::Create(stack->service.get(), daemon_options);
    if (!daemon.ok()) return daemon.status();
    stack->daemon = *std::move(daemon);
    // The listen backlog holds these until the first slice's daemon
    // thread accepts them.
    for (int c = 0; c < kConnections; ++c) {
      const int fd = ConnectUnix(stack->socket_path);
      if (fd < 0) {
        return common::Status::Internal("connect to " + stack->socket_path +
                                        ": " + std::strerror(errno));
      }
      stack->fds.push_back(fd);
    }
    service::ClientOptions client_options;
    client_options.connect_timeout_ms = 2000;
    client_options.request_timeout_ms = 2000;
    client_options.max_retries = 3;
    client_options.backoff_seed = options.seed;
    auto client =
        service::AdmitClient::Connect(stack->socket_path, client_options);
    if (!client.ok()) return client.status();
    stack->client = *std::move(client);
  }
  return common::Status::Ok();
}

struct InFlight {
  uint64_t seq = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  Op op = Op::kAdmitClass;
  uint64_t session = 0;
  uint32_t cls = 0;  // admit target / transition target
};

struct Connection {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<InFlight> inflight;
};

// What one open-loop segment measured.
struct SegmentStats {
  std::vector<double> admit_latency_s;  // admits only; failed = +inf
  std::vector<double> latency_s;        // every request; failed = +inf
  std::vector<double> lag_s;            // send time - due time
  std::vector<double> call_s;           // send -> response
  int64_t codec_ns = 0;                 // encode + decode time (traced)
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t admits = 0;
  int64_t capacity_rejects = 0;
  int64_t first_send_ns = 0;
  int64_t last_response_ns = 0;
};

// The open-loop generator and its model of the service's session state.
class Generator {
 public:
  Generator(AdmitStack* stack, uint64_t seed, PhaseResult* result)
      : stack_(stack), rng_(seed), result_(result) {
    for (const int fd : stack->fds) {
      Connection connection;
      connection.fd = fd;
      connections_.push_back(std::move(connection));
    }
    live_by_class_.assign(kNumClasses, 0);
  }

  // Sends `count` requests at `rate` per second, starting now, and waits
  // for every response. Returns false if the daemon stopped answering.
  bool RunSegment(double rate, int64_t count, SegmentStats* stats);

  // Sends a ping without waiting for it: the daemon thread's poll wakes
  // and sees that the slice is over. Its response is consumed by a later
  // segment or by Drain().
  void SendWake();
  // Waits until every request in flight is answered; false on timeout.
  bool Drain();

  // Final consistency checks of the wire (nothing in flight, no stray
  // bytes).
  void CheckQuiescent();

  const std::unordered_map<uint64_t, uint32_t>& live() const {
    return live_;
  }
  const std::vector<int64_t>& live_by_class() const { return live_by_class_; }
  int64_t admits_ok() const { return admits_ok_; }
  int64_t teardowns_ok() const { return teardowns_ok_; }

 private:
  InFlight NextRequest(service::Request* request);
  void Flush(Connection& connection);
  bool Receive(Connection& connection, int64_t now_ns, SegmentStats* stats);
  void Complete(const InFlight& request, const service::Response& response,
                int64_t now_ns, SegmentStats* stats);

  // A request chosen but not yet encoded.
  struct Pending {
    service::Request request;
    InFlight flight;
  };

  AdmitStack* stack_;
  std::mt19937_64 rng_;
  PhaseResult* result_;
  std::vector<Connection> connections_;
  std::vector<Pending> batch_;                  // reused per send burst
  std::vector<service::Response> responses_;   // reused per receive
  uint64_t next_seq_ = 0;
  uint64_t next_session_ = 1;
  // Live sessions with no request in flight (pickable for teardown or
  // transition), and every live session's class.
  std::vector<uint64_t> idle_;
  std::unordered_map<uint64_t, uint32_t> live_;
  std::vector<int64_t> live_by_class_;
  int64_t admits_ok_ = 0;
  int64_t teardowns_ok_ = 0;
  bool broken_ = false;
};

InFlight Generator::NextRequest(service::Request* request) {
  InFlight flight;
  flight.seq = next_seq_++;
  int draw = static_cast<int>(rng_() % 1000);
  const auto take_idle = [this]() {
    const size_t index = static_cast<size_t>(rng_() % idle_.size());
    const uint64_t session = idle_[index];
    idle_[index] = idle_.back();
    idle_.pop_back();
    return session;
  };
  // Teardown/transition need an idle live session; fall back to an admit.
  if (draw >= kMixAdmitClass + kMixAdmitTolerance &&
      draw < kMixAdmitClass + kMixAdmitTolerance + kMixTeardown +
                 kMixTransition &&
      idle_.empty()) {
    draw = 0;
  }
  if (draw < kMixAdmitClass) {
    flight.op = Op::kAdmitClass;
    flight.session = next_session_++;
    flight.cls = static_cast<uint32_t>(rng_() % kNumClasses);
    request->op = OpCode::kAdmitClass;
    request->session_id = flight.session;
    request->class_index = flight.cls;
  } else if ((draw -= kMixAdmitClass) < kMixAdmitTolerance) {
    const ToleranceChoice& choice =
        kToleranceChoices[rng_() % std::size(kToleranceChoices)];
    flight.op = Op::kAdmitTolerance;
    flight.session = next_session_++;
    flight.cls = choice.cls;
    request->op = OpCode::kAdmitTolerance;
    request->session_id = flight.session;
    request->tolerance = choice.tolerance;
  } else if ((draw -= kMixAdmitTolerance) < kMixTeardown) {
    flight.op = Op::kTeardown;
    flight.session = take_idle();
    request->op = OpCode::kTeardown;
    request->session_id = flight.session;
  } else if ((draw -= kMixTeardown) < kMixTransition) {
    flight.op = Op::kTransition;
    flight.session = take_idle();
    const uint32_t current = live_.at(flight.session);
    flight.cls = (current + 1 + static_cast<uint32_t>(rng_() % 2)) %
                 kNumClasses;
    request->op = OpCode::kTransition;
    request->session_id = flight.session;
    request->class_index = flight.cls;
  } else if ((draw -= kMixTransition) < kMixStats) {
    flight.op = Op::kStats;
    request->op = OpCode::kStats;
  } else {
    flight.op = Op::kDigest;
    request->op = OpCode::kDigest;
  }
  return flight;
}

void Generator::Flush(Connection& connection) {
  if (connection.out.empty()) return;
  size_t offset = 0;
  while (offset < connection.out.size()) {
    const ssize_t n =
        ::send(connection.fd, connection.out.data() + offset,
               connection.out.size() - offset, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    broken_ = true;
    break;
  }
  connection.out.erase(0, offset);
}

void Generator::Complete(const InFlight& request,
                         const service::Response& response, int64_t now_ns,
                         SegmentStats* stats) {
  if (request.op == Op::kPing) {
    result_->Check(response.status == WireStatus::kOk, "ping answered");
    return;
  }
  ++stats->completed;
  double latency = static_cast<double>(now_ns - request.due_ns) * 1e-9;
  stats->call_s.push_back(static_cast<double>(now_ns - request.sent_ns) *
                          1e-9);
  if (response.status == WireStatus::kOverloaded) {
    // Shed: the request was not processed; the session keeps its state.
    ++stats->failed;
    latency = kInf;
    if (request.op == Op::kTeardown || request.op == Op::kTransition) {
      idle_.push_back(request.session);
    }
  } else {
    switch (request.op) {
      case Op::kAdmitClass:
      case Op::kAdmitTolerance: {
        const int64_t limit = stack_->expected_limit[request.cls];
        if (response.status == WireStatus::kOk) {
          result_->Check(response.session_id == request.session &&
                             response.class_index == request.cls,
                         "admit answered for the requested session/class");
          result_->Check(response.limit == limit,
                         "admit judged against table x scale limit");
          result_->Check(response.occupancy <= response.limit &&
                             response.occupancy >= 1,
                         "no admit reports occupancy above its limit");
          live_[request.session] = request.cls;
          ++live_by_class_[request.cls];
          idle_.push_back(request.session);
          ++admits_ok_;
        } else if (response.status == WireStatus::kRejectedCapacity) {
          result_->Check(response.occupancy >= response.limit &&
                             response.limit == limit,
                         "capacity reject only at the limit");
          ++stats->capacity_rejects;
        } else {
          result_->Fail(std::string("admit status ") +
                        service::WireStatusName(response.status));
        }
        break;
      }
      case Op::kTeardown: {
        ++result_->checks;
        if (response.status != WireStatus::kOk) {
          result_->Fail(std::string("teardown of a live session: ") +
                        service::WireStatusName(response.status));
        } else {
          --live_by_class_[live_.at(request.session)];
          live_.erase(request.session);
          ++teardowns_ok_;
        }
        break;
      }
      case Op::kTransition: {
        const int64_t limit = stack_->expected_limit[request.cls];
        if (response.status == WireStatus::kOk) {
          result_->Check(response.occupancy <= limit &&
                             response.class_index == request.cls,
                         "transition stays within the target limit");
          --live_by_class_[live_.at(request.session)];
          ++live_by_class_[request.cls];
          live_[request.session] = request.cls;
        } else if (response.status != WireStatus::kRejectedCapacity) {
          result_->Fail(std::string("transition status ") +
                        service::WireStatusName(response.status));
        }
        idle_.push_back(request.session);
        break;
      }
      case Op::kStats: {
        const auto decoded = service::DecodeServiceStats(response.payload);
        result_->Check(response.status == WireStatus::kOk && decoded.ok() &&
                           decoded->classes.size() == kNumClasses,
                       "stats response decodes with every class");
        break;
      }
      case Op::kDigest:
        result_->Check(response.status == WireStatus::kOk,
                       "digest answered");
        break;
      case Op::kPing:
        break;
    }
  }
  if (IsAdmit(request.op)) {
    ++stats->admits;
    stats->admit_latency_s.push_back(latency);
  }
  stats->latency_s.push_back(latency);
  stats->last_response_ns = now_ns;
}

bool Generator::Receive(Connection& connection, int64_t now_ns,
                        SegmentStats* stats) {
  {
    ScopedSpan span(SpanId::kSocketRecv);
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n =
          ::recv(connection.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        connection.in.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // closed or failed
    }
  }
  // Decode every complete frame in one span (tag = frames), then match
  // them to their requests outside it.
  responses_.clear();
  size_t offset = 0;
  bool malformed = false;
  {
    ScopedSpan span(SpanId::kProtocolDecode, 0);
    const int64_t start = Tracer::Active() ? NowNs() : 0;
    for (;;) {
      size_t consumed = 0;
      std::string_view payload;
      const service::FrameParse parse = service::NextFrame(
          std::string_view(connection.in).substr(offset), &consumed,
          &payload);
      if (parse == service::FrameParse::kNeedMore) break;
      if (parse == service::FrameParse::kError) {
        malformed = true;
        break;
      }
      auto response = service::DecodeResponse(payload);
      offset += consumed;
      if (!response.ok()) {
        malformed = true;
        break;
      }
      responses_.push_back(*std::move(response));
    }
    span.set_tag(responses_.size());
    if (Tracer::Active()) stats->codec_ns += NowNs() - start;
  }
  connection.in.erase(0, offset);
  for (const service::Response& response : responses_) {
    if (connection.inflight.empty()) {
      malformed = true;
      break;
    }
    const InFlight request = connection.inflight.front();
    connection.inflight.pop_front();
    if (request.seq % kRequestSpanEvery == 0) {
      RecordAsyncSpan(SpanId::kClientCall, request.sent_ns, now_ns,
                      request.seq);
    }
    Complete(request, response, now_ns, stats);
  }
  if (malformed) {
    result_->Check(false, "every response decodes and answers a request");
  }
  return !malformed;
}

bool Generator::RunSegment(double rate, int64_t count, SegmentStats* stats) {
  if (broken_) return false;
  const double period_ns = 1e9 / rate;
  const int64_t start_ns = NowNs() + 100'000;
  const auto due = [&](int64_t i) {
    return start_ns + static_cast<int64_t>(std::llround(
                          static_cast<double>(i) * period_ns));
  };
  int64_t sent = 0;
  std::vector<pollfd> fds(connections_.size());
  stats->first_send_ns = 0;
  // Sized once: growth by doubling would leave the heap's high-water mark
  // to the order of frees.
  for (std::vector<double>* samples :
       {&stats->admit_latency_s, &stats->latency_s, &stats->lag_s,
        &stats->call_s}) {
    samples->reserve(samples->size() + static_cast<size_t>(count));
  }
  while (stats->completed < count) {
    int64_t now = NowNs();
    // Every request now due: chosen (bookkeeping), then encoded in one
    // span (tag = requests), then flushed.
    batch_.clear();
    while (sent < count && due(sent) <= now) {
      batch_.emplace_back();
      batch_.back().flight = NextRequest(&batch_.back().request);
      batch_.back().flight.due_ns = due(sent);
      batch_.back().flight.sent_ns = now;
      ++sent;
    }
    if (!batch_.empty()) {
      {
        ScopedSpan span(SpanId::kProtocolEncode, batch_.size());
        const int64_t start = Tracer::Active() ? NowNs() : 0;
        for (const Pending& pending : batch_) {
          service::AppendFrame(
              &connections_[pending.flight.seq % connections_.size()].out,
              service::EncodeRequest(pending.request));
        }
        if (Tracer::Active()) stats->codec_ns += NowNs() - start;
      }
      for (const Pending& pending : batch_) {
        const InFlight& flight = pending.flight;
        stats->lag_s.push_back(static_cast<double>(now - flight.due_ns) *
                               1e-9);
        connections_[flight.seq % connections_.size()].inflight.push_back(
            flight);
      }
      if (stats->first_send_ns == 0) stats->first_send_ns = now;
      stats->attempted += static_cast<int64_t>(batch_.size());
      {
        ScopedSpan span(SpanId::kSocketSend);
        for (Connection& connection : connections_) Flush(connection);
      }
      if (broken_) return false;
    }
    // Wait for responses until the next request is due (or briefly, once
    // everything is sent). Wake 20 us early and spin the rest, so the
    // sender's own timer latency stays out of the measurement.
    now = NowNs();
    int64_t wait_ns = sent < count ? due(sent) - now - 20'000 : 1'000'000;
    if (wait_ns < 0) wait_ns = 0;
    for (size_t c = 0; c < connections_.size(); ++c) {
      fds[c].fd = connections_[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (connections_[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    int ready = 0;
    {
      // Zero-timeout polls while spinning up to a due time are the
      // sender's own bookkeeping (harness), not waits on the daemon.
      std::optional<ScopedSpan> span;
      if (wait_ns > 0) span.emplace(SpanId::kSocketWait);
      timespec timeout{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
      ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    }
    if (ready < 0 && errno != EINTR) return false;
    if (ready > 0) {
      const int64_t arrived = NowNs();
      for (size_t c = 0; c < connections_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !Receive(connections_[c], arrived, stats)) {
          broken_ = true;
          return false;
        }
        if ((fds[c].revents & POLLOUT) != 0) Flush(connections_[c]);
      }
    }
    // Timeout: the oldest outstanding request waited too long (a wake
    // ping may legitimately have waited for the next slice).
    for (const Connection& connection : connections_) {
      if (!connection.inflight.empty() &&
          connection.inflight.front().op != Op::kPing &&
          NowNs() - connection.inflight.front().sent_ns > kTimeoutNs) {
        broken_ = true;
        return false;
      }
    }
  }
  return true;
}

void Generator::SendWake() {
  if (broken_) return;
  Connection& connection = connections_.front();
  service::Request request;
  request.op = OpCode::kPing;
  service::AppendFrame(&connection.out, service::EncodeRequest(request));
  InFlight flight;
  flight.seq = next_seq_++;
  flight.op = Op::kPing;
  flight.sent_ns = NowNs();
  connection.inflight.push_back(flight);
  Flush(connection);
}

bool Generator::Drain() {
  SegmentStats ignored;
  const int64_t deadline = NowNs() + kTimeoutNs;
  std::vector<pollfd> fds(connections_.size());
  for (;;) {
    bool pending = false;
    for (size_t c = 0; c < connections_.size(); ++c) {
      pending = pending || !connections_[c].inflight.empty();
      fds[c].fd = connections_[c].fd;
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    if (!pending) return !broken_;
    if (broken_ || NowNs() > deadline) break;
    timespec timeout{0, 1'000'000};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      break;
    }
    for (size_t c = 0; c < connections_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !Receive(connections_[c], NowNs(), &ignored)) {
        broken_ = true;
      }
    }
  }
  broken_ = true;
  return false;
}

void Generator::CheckQuiescent() {
  bool clean = !broken_;
  for (Connection& connection : connections_) {
    clean = clean && connection.inflight.empty() && connection.in.empty() &&
            connection.out.empty();
    char byte = 0;
    const ssize_t n = ::recv(connection.fd, &byte, 1, MSG_DONTWAIT);
    clean = clean && n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  result_->Check(clean, "every request got exactly one response");
}

// What the phase keeps of a measured segment; the samples themselves are
// dropped, so memory stays flat however long the run.
struct SegmentSummary {
  double admit_p50_s = 0.0;
  double admit_p99_s = 0.0;
  double lag_p99_s = 0.0;
  double call_p50_s = 0.0;
  double call_p99_s = 0.0;
  double codec_per_op_s = 0.0;  // traced only
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t admits = 0;
  int64_t capacity_rejects = 0;
};

SegmentSummary SummarizeSegment(const SegmentStats& stats) {
  SegmentSummary summary;
  summary.admit_p50_s = Quantile(stats.admit_latency_s, 0.5);
  summary.admit_p99_s = Quantile(stats.admit_latency_s, 0.99);
  summary.lag_p99_s = Quantile(stats.lag_s, 0.99);
  summary.call_p50_s = Quantile(stats.call_s, 0.5);
  summary.call_p99_s = Quantile(stats.call_s, 0.99);
  summary.codec_per_op_s =
      stats.attempted > 0 ? static_cast<double>(stats.codec_ns) * 1e-9 /
                                static_cast<double>(stats.attempted)
                          : 0.0;
  summary.attempted = stats.attempted;
  summary.failed = stats.failed;
  summary.admits = stats.admits;
  summary.capacity_rejects = stats.capacity_rejects;
  return summary;
}

// q-quantile over segments of one per-segment statistic.
double QuantileOver(const std::vector<SegmentSummary>& segments,
                    double SegmentSummary::*field, double q) {
  std::vector<double> values;
  for (const SegmentSummary& segment : segments) {
    values.push_back(segment.*field);
  }
  return Quantile(values, q);
}

// Median over segments of one per-segment statistic.
double MedianOver(const std::vector<SegmentSummary>& segments,
                  double SegmentSummary::*field) {
  return QuantileOver(segments, field, 0.5);
}

// Whether a ladder trial met the limit: p99 over every request (failures
// count as misses) within kSloS, and no backlog left growing at its end
// (the median of its last fifth within the limit too).
bool TrialMeetsLimit(const SegmentStats& stats) {
  const std::vector<double> tail(
      stats.latency_s.end() -
          static_cast<ptrdiff_t>(stats.latency_s.size() / 5),
      stats.latency_s.end());
  return stats.failed == 0 && Quantile(stats.latency_s, 0.99) <= kSloS &&
         Median(tail) <= kSloS;
}

class AdmitWirePhase final : public Phase {
 public:
  explicit AdmitWirePhase(const PhaseOptions& options)
      : options_(options), cpus_(AllowedCpus()) {}

  ~AdmitWirePhase() override { StopThreads(); }

  void Setup() override;
  void RunSlice() override;
  void Finish() override;

 private:
  int CpuFor(size_t role) const {
    return cpus_.size() >= 3 ? cpus_[role] : -1;
  }
  void StartThreads(bool control);
  void StopThreads();
  // Runs `count` segments at `rate` into `out`, accumulating their time.
  void RunSegments(double rate, int64_t count,
                   std::vector<SegmentSummary>* out, double* seconds);
  // One ladder search; returns the achieved rate at the highest passing
  // point (0 when even the first point misses the limit).
  double RunLadder();
  std::vector<double> AttemptPoint(double rate);

  PhaseOptions options_;
  std::vector<int> cpus_;  // generator, daemon, control
  int repetitions_ = 0;
  std::unique_ptr<AdmitStack> stack_;
  std::unique_ptr<Generator> generator_;
  std::vector<double> table_build_s_;

  std::atomic<bool> stop_{false};
  std::thread daemon_thread_;
  std::thread control_thread_;
  std::mutex control_mutex_;
  std::condition_variable control_wake_;
  std::vector<double> publish_s_;  // written by the control thread

  double consumed_s_ = 0.0;
  double light_s_ = 0.0;
  double loaded_s_ = 0.0;
  SegmentStats warmup_;
  std::vector<SegmentSummary> light_;
  std::vector<SegmentSummary> loaded_;
  std::vector<double> ladder_rates_;
  std::vector<double> ladder_offered_;
  int64_t ladder_attempted_ = 0;
  int64_t ladder_failed_ = 0;
};

// Setup runs up to the first timed request: table, service, daemon and
// connections, then a warm-up that lets the daemon accept the
// connections and fills every class to its limit.
void AdmitWirePhase::Setup() {
  generator_.reset();
  stack_.reset();  // tear down the previous repetition first
  ScopedSpan span(SpanId::kSetup);
  const int64_t start = NowNs();
  auto next = std::make_unique<AdmitStack>();
  const common::Status status = BuildStack(options_, repetitions_++, next.get());
  stack_ = std::move(next);
  if (!status.ok()) {
    result_.Check(false, "admit_wire setup: " + status.ToString());
    healthy_ = false;
    return;
  }
  table_build_s_.push_back(stack_->table_build_s);
  generator_ = std::make_unique<Generator>(stack_.get(), options_.seed,
                                           &result_);
  {
    const ScopedCpuPin pin(CpuFor(0));
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    StartThreads(/*control=*/false);
    warmup_ = SegmentStats{};
    healthy_ = generator_->RunSegment(kLightRate, kWarmupRequests, &warmup_);
    StopThreads();
    ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  }
  result_.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
}

void AdmitWirePhase::StartThreads(bool control) {
  stop_.store(false, std::memory_order_release);
  daemon_thread_ = std::thread(DaemonLoop, stack_->daemon.get(),
                               stack_->service.get(), options_.tracer,
                               CpuFor(1), &stop_);
  if (!control) return;
  control_thread_ = std::thread([this]() {
    PinThisThread(CpuFor(2));
    if (options_.tracer != nullptr) {
      options_.tracer->AttachThisThread("control");
    }
    for (int64_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(control_mutex_);
        if (control_wake_.wait_for(
                lock, std::chrono::milliseconds(kPublishPeriodMs), [this] {
                  return stop_.load(std::memory_order_acquire);
                })) {
          break;
        }
      }
      ScopedSpan span(SpanId::kPublish);
      const int64_t start = NowNs();
      if (i % 2 == 0) {
        stack_->service->PublishTable(*stack_->table);
      } else {
        stack_->service->PublishScale(kLimitScale);
      }
      publish_s_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    Tracer::DetachThisThread();
  });
}

void AdmitWirePhase::StopThreads() {
  if (!daemon_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  control_wake_.notify_all();
  if (control_thread_.joinable()) control_thread_.join();
  // Wake the daemon's poll so it sees the stop flag.
  generator_->SendWake();
  daemon_thread_.join();
}

void AdmitWirePhase::RunSegments(double rate, int64_t count,
                                 std::vector<SegmentSummary>* out,
                                 double* seconds) {
  const int64_t start = NowNs();
  for (int64_t i = 0; healthy_ && i < count; ++i) {
    SegmentStats stats;
    healthy_ = generator_->RunSegment(rate, kSegmentRequests, &stats);
    out->push_back(SummarizeSegment(stats));
  }
  *seconds += static_cast<double>(NowNs() - start) * 1e-9;
}

std::vector<double> AdmitWirePhase::AttemptPoint(double rate) {
  std::vector<double> achieved;
  for (int trial = 0; healthy_ && trial < kLadderTrials; ++trial) {
    SegmentStats stats;
    const int64_t requests = std::max<int64_t>(
        kLadderTrialRequests,
        static_cast<int64_t>(rate * kLadderTrialSeconds));
    healthy_ = generator_->RunSegment(rate, requests, &stats);
    ladder_attempted_ += stats.attempted;
    ladder_failed_ += stats.failed;
    if (healthy_ && TrialMeetsLimit(stats)) {
      achieved.push_back(static_cast<double>(stats.attempted) /
                         (static_cast<double>(stats.last_response_ns -
                                              stats.first_send_ns) *
                          1e-9));
    }
  }
  return achieved;
}

double AdmitWirePhase::RunLadder() {
  const auto rate_at = [](int k) {
    return kLadderBase * std::exp2(k / kLadderPointsPerOctave);
  };
  // A point passes when a majority of its trials meet the limit; a point
  // that misses is attempted once more before it counts as a miss.
  const auto passes = [&](int k, double* achieved) {
    for (int attempt = 0; attempt < 2 && healthy_; ++attempt) {
      const std::vector<double> rates = AttemptPoint(rate_at(k));
      if (2 * static_cast<int>(rates.size()) > kLadderTrials) {
        *achieved = Median(rates);
        return true;
      }
    }
    return false;
  };
  // Invariant: every point <= best passed, every point >= miss missed.
  int best = -1;
  double best_rate = 0.0;
  int miss = kLadderPoints;
  while (miss - best > 1 && healthy_) {
    const int k = best + (miss - best) / 2;
    double achieved = 0.0;
    if (passes(k, &achieved)) {
      best = k;
      best_rate = achieved;
    } else {
      miss = k;
    }
  }
  ladder_offered_.push_back(best >= 0 ? rate_at(best) : 0.0);
  return best_rate;
}

void AdmitWirePhase::RunSlice() {
  if (!healthy_) return;
  const int64_t start = NowNs();
  const ScopedCpuPin pin(CpuFor(0));
  // The sender sleeps until each request is due; a 1 ns timer slack keeps
  // the kernel from deferring those wakeups by its default 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  StartThreads(/*control=*/true);
  const double ladder_due =
      options_.budget_s * (2.0 * ladder_rates_.size() + 1.0) /
      (2.0 * kLadderRuns);
  if (static_cast<int>(ladder_rates_.size()) < kLadderRuns &&
             consumed_s_ >= ladder_due) {
    ladder_rates_.push_back(RunLadder());
  } else if (light_s_ <= loaded_s_ * kLightShare / (1.0 - kLightShare)) {
    const double segment_s = static_cast<double>(kSegmentRequests) / kLightRate;
    RunSegments(kLightRate,
                std::max<int64_t>(1, std::llround(kChunkSeconds / segment_s)),
                &light_, &light_s_);
  } else {
    const double segment_s =
        static_cast<double>(kSegmentRequests) / kLoadedRate;
    RunSegments(kLoadedRate,
                std::max<int64_t>(1, std::llround(kChunkSeconds / segment_s)),
                &loaded_, &loaded_s_);
  }
  StopThreads();
  ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  consumed_s_ += static_cast<double>(NowNs() - start) * 1e-9;
}

void AdmitWirePhase::Finish() {
  if (stack_ == nullptr || generator_ == nullptr) return;
  {
    // A run too short to reach every operating point still measures each
    // once (outside the measured time).
    const ScopedCpuPin pin(CpuFor(0));
    StartThreads(/*control=*/false);
    double unused = 0.0;
    if (healthy_ && light_.empty()) RunSegments(kLightRate, 1, &light_, &unused);
    if (healthy_ && loaded_.empty()) {
      RunSegments(kLoadedRate, 1, &loaded_, &unused);
    }
    if (healthy_ && ladder_rates_.empty()) ladder_rates_.push_back(RunLadder());
    StopThreads();
  }

  ScopedSpan checks_span(SpanId::kChecks);
  StartThreads(/*control=*/false);
  result_.Check(healthy_ && generator_->Drain(),
                "daemon answered every request in time");
  generator_->CheckQuiescent();
  service::AdmissionService& svc = *stack_->service;
  const Generator& generator = *generator_;
  {
    ScopedSpan span(SpanId::kClientControl);
    const auto digest = stack_->client->Digest();
    result_.Check(digest.ok() && digest->digest == svc.Digest() &&
                      digest->occupancy ==
                          static_cast<int64_t>(generator.live().size()),
                  "wire digest equals AdmissionService::Digest()");
    const auto stats = stack_->client->Stats();
    bool match = stats.ok() &&
                 stats->live_sessions ==
                     static_cast<int64_t>(generator.live().size()) &&
                 stats->classes.size() == kNumClasses;
    for (int c = 0; match && c < kNumClasses; ++c) {
      match = stats->classes[c].occupancy == generator.live_by_class()[c] &&
              stats->classes[c].limit == stack_->expected_limit[c];
    }
    result_.Check(match, "wire stats match the sessions the generator holds");
    int64_t swept = 0;
    bool sweep_ok = true;
    for (const auto& [id, cls] : generator.live()) {
      const auto response = stack_->client->Teardown(id);
      sweep_ok = sweep_ok && response.ok() &&
                 response->status == WireStatus::kOk;
      ++swept;
    }
    result_.Check(sweep_ok, "final teardown of every live session");
    result_.Check(generator.admits_ok() == generator.teardowns_ok() + swept,
                  "successful admits == teardowns + sessions still live");
  }
  StopThreads();
  {
    ScopedSpan span(SpanId::kServiceInspect);
    const service::ServiceStats stats = svc.Stats();
    result_.Check(stats.live_sessions == 0, "no live sessions after teardown");
    const service::ReconcileReport reconcile = svc.ReconcileOccupancy();
    result_.Check(reconcile.total_drift == 0, "zero occupancy drift");
  }

  // --- metrics ---------------------------------------------------------
  std::vector<SegmentSummary> all = light_;
  all.insert(all.end(), loaded_.begin(), loaded_.end());
  int64_t attempted = warmup_.attempted;
  int64_t failed = warmup_.failed;
  int64_t admits = 0;
  int64_t rejects = 0;
  for (const SegmentSummary& segment : all) {
    attempted += segment.attempted;
    failed += segment.failed;
    admits += segment.admits;
    rejects += segment.capacity_rejects;
  }
  result_.attempted = attempted + ladder_attempted_;
  result_.failed = failed + ladder_failed_;
  const double light_p50 = MedianOver(light_, &SegmentSummary::admit_p50_s);
  const double light_p99 = MedianOver(light_, &SegmentSummary::admit_p99_s);
  const double loaded_p50 = MedianOver(loaded_, &SegmentSummary::admit_p50_s);
  const double loaded_p99 = MedianOver(loaded_, &SegmentSummary::admit_p99_s);
  // The reported p50 is the lower quartile of the per-segment p50s: host
  // neighbours slow whole stretches of segments, and the median over
  // segments follows how long those stretches last (it spreads by about
  // twice as much over seeds), while the quieter quarter measures the path.
  const double light_p50_quiet =
      QuantileOver(light_, &SegmentSummary::admit_p50_s, 0.25);
  result_.Set("admit_p50_us", light_p50_quiet * 1e6, "us");
  result_.Set("admit_p99_us", light_p99 * 1e6, "us");
  result_.Set("admit_p99_us_loaded", loaded_p99 * 1e6, "us");
  result_.Set("admit_rate_at_slo", Median(ladder_rates_), "ops/s");
  // Over the warm-up, light and loaded operating points (the ladder
  // deliberately overloads). Never 0: the rule-of-succession estimate
  // (failed + 1) / (attempted + 2).
  result_.Set("op_failed_frac",
              static_cast<double>(failed + 1) /
                  static_cast<double>(attempted + 2),
              "ratio");

  Note("admit_wire: light %.0f/s: admit p50 %.4g us, p99 %.4g us (medians "
       "over %zu segments of >= 1000 admits)",
       kLightRate, light_p50 * 1e6, light_p99 * 1e6, light_.size());
  Note("admit_wire: loaded %.0f/s: admit p50 %.4g us, p99 %.4g us (medians "
       "over %zu segments of >= 1000 admits)",
       kLoadedRate, loaded_p50 * 1e6, loaded_p99 * 1e6, loaded_.size());
  std::string ladders;
  for (size_t i = 0; i < ladder_rates_.size(); ++i) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%s%.0f/s (offered %.0f/s)",
                  i == 0 ? "" : ", ", ladder_rates_[i], ladder_offered_[i]);
    ladders += buffer;
  }
  Note("admit_wire: ladder searches at p99 <= %.0f us: %s", kSloS * 1e6,
       ladders.c_str());
  const double lag_p99 = MedianOver(all, &SegmentSummary::lag_p99_s);
  Note("admit_wire: generator lag p99 %.4g us (median over segments); %lld "
       "requests attempted at the operating points, %lld failed",
       lag_p99 * 1e6, static_cast<long long>(attempted),
       static_cast<long long>(failed));

  result_.Set("generator.lag_us_p99", lag_p99 * 1e6, "us");
  result_.Set("service.capacity_reject_frac",
              admits > 0 ? static_cast<double>(rejects) /
                               static_cast<double>(admits)
                         : 0.0,
              "ratio");
  result_.Set("service.admit_ns_p50", svc.LatencyQuantile(0.5) * 1e9, "ns");
  result_.Set("service.admit_ns_p99", svc.LatencyQuantile(0.99) * 1e9, "ns");
  result_.Set("service.publish_us", Median(publish_s_) * 1e6, "us");
  result_.Set(
      "service.overload.shed_requests",
      static_cast<double>(stack_->daemon->overload_stats().shed_requests),
      "count");
  result_.Set("service.client.retries",
              static_cast<double>(stack_->client->retries()), "count");
  result_.Set("core.table_build_ms", Median(table_build_s_) * 1e3, "ms");
  const double call_p50 = MedianOver(all, &SegmentSummary::call_p50_s);
  result_.Set("service.client.call_us.p50", call_p50 * 1e6, "us");
  result_.Set("service.client.call_us.p99",
              MedianOver(all, &SegmentSummary::call_p99_s) * 1e6, "us");
  result_.Set("service.wire_overhead_us",
              call_p50 * 1e6 - svc.LatencyQuantile(0.5) * 1e6, "us");
  if (options_.tracer != nullptr) {
    result_.Set("service.protocol.codec_ns",
                MedianOver(all, &SegmentSummary::codec_per_op_s) * 1e9, "ns");
  }
}

}  // namespace

std::unique_ptr<Phase> MakeAdmitWire(const PhaseOptions& options) {
  return std::make_unique<AdmitWirePhase>(options);
}

}  // namespace zsbench
