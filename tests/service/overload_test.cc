// Overload-hardening tests for the admission daemon and client: accept-
// time rejection, per-poll shed budget, idle / write-stall deadlines,
// input-cap kTooLarge, deterministic client backoff honoring the
// retry-after hint, and reconnect-after-restart. Deadline tests drive
// PollOnce with an injected clock so no test waits on wall time.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "raw_socket.h"
#include "service/admission_service.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"

namespace zonestream::service {
namespace {

std::string TempSocketPath(const char* tag) {
  return std::string("/tmp/zs_overload_test_") + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Daemon driven manually via PollOnce (no serve thread) with a
// test-controlled clock.
class OverloadTest : public ::testing::Test {
 protected:
  void StartDaemon(const char* tag, DaemonOptions options) {
    AdmissionServiceConfig config;
    config.classes = {{"gold", 0.001}, {"silver", 0.01}};
    config.registry.shards = 1;
    config.registry.capacity = 1024;
    auto service = AdmissionService::Create(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    ASSERT_TRUE(service_->PublishLimits({100, 100}).ok());

    socket_path_ = TempSocketPath(tag);
    options.socket_path = socket_path_;
    options.metrics = &metrics_;
    options.clock_ms = [this] { return now_ms_; };
    auto daemon = AdmitDaemon::Create(service_.get(), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
  }

  void TearDown() override {
    daemon_.reset();
    if (!socket_path_.empty()) std::remove(socket_path_.c_str());
  }

  int64_t Counter(const char* name) {
    return metrics_.GetCounter(name)->value();
  }

  obs::Registry metrics_;
  std::unique_ptr<AdmissionService> service_;
  std::unique_ptr<AdmitDaemon> daemon_;
  std::string socket_path_;
  int64_t now_ms_ = 0;
};

TEST_F(OverloadTest, AcceptRejectsPastConnectionCapWithRetryAfter) {
  DaemonOptions options;
  options.max_connections = 1;
  options.retry_after_ms = 75;
  StartDaemon("acceptcap", options);

  const int first = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 1);

  const int second = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));

  // The rejected connection receives a structured kOverloaded frame with
  // the hint, then EOF.
  const auto responses = ReadResponses(second, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, WireStatus::kOverloaded);
  EXPECT_EQ(responses[0].retry_after_ms, 75u);
  char byte = 0;
  EXPECT_EQ(::recv(second, &byte, 1, 0), 0);  // closed

  EXPECT_EQ(daemon_->overload_stats().rejected_connections, 1);
  EXPECT_EQ(daemon_->overload_stats().peak_connections, 1);
  EXPECT_EQ(Counter("service.overload.rejected_connections"), 1);
  EXPECT_EQ(Counter("service.overload.retry_after_issued"), 1);

  // The accepted connection still serves.
  std::string ping = PingFrames(1);
  ASSERT_EQ(::send(first, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));
  ASSERT_TRUE(daemon_->PollOnce(0));
  const auto pong = ReadResponses(first, 1);
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0].status, WireStatus::kOk);
  ::close(first);
  ::close(second);
}

TEST_F(OverloadTest, RequestBudgetShedsBeyondPerPollLimit) {
  DaemonOptions options;
  options.max_requests_per_poll = 1;
  options.retry_after_ms = 40;
  StartDaemon("shed", options);

  const int fd = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));

  // A 10-frame batch lands in one read: the budget serves exactly one
  // request, and every further frame in the batch is consumed and
  // answered kOverloaded — in order, never silently queued.
  const std::string batch = PingFrames(10);
  ASSERT_EQ(::send(fd, batch.data(), batch.size(), 0),
            static_cast<ssize_t>(batch.size()));
  ASSERT_TRUE(daemon_->PollOnce(0));

  const auto responses = ReadResponses(fd, 10);
  ASSERT_EQ(responses.size(), 10u);
  EXPECT_EQ(responses[0].status, WireStatus::kOk);
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, WireStatus::kOverloaded) << i;
    EXPECT_EQ(responses[i].retry_after_ms, 40u) << i;
  }
  EXPECT_EQ(daemon_->overload_stats().shed_requests, 9);
  EXPECT_EQ(daemon_->overload_stats().retry_after_issued, 9);
  EXPECT_EQ(daemon_->requests_served(), 1);
  EXPECT_EQ(Counter("service.overload.shed_requests"), 9);

  // The budget refills next poll: the connection survives shedding.
  const std::string one = PingFrames(1);
  ASSERT_EQ(::send(fd, one.data(), one.size(), 0),
            static_cast<ssize_t>(one.size()));
  ASSERT_TRUE(daemon_->PollOnce(0));
  const auto again = ReadResponses(fd, 1);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].status, WireStatus::kOk);
  ::close(fd);
}

TEST_F(OverloadTest, IdleDeadlineClosesSilentConnection) {
  DaemonOptions options;
  options.idle_timeout_ms = 100;
  StartDaemon("idle", options);

  const int fd = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 1);

  // Under the deadline: stays open.
  now_ms_ = 99;
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 1);
  EXPECT_EQ(daemon_->overload_stats().idle_closes, 0);

  // At the deadline with no bytes ever received: closed.
  now_ms_ = 100;
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 0);
  EXPECT_EQ(daemon_->overload_stats().idle_closes, 1);
  EXPECT_EQ(Counter("service.overload.idle_closes"), 1);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // EOF
  ::close(fd);
}

TEST_F(OverloadTest, TrafficResetsIdleDeadline) {
  DaemonOptions options;
  options.idle_timeout_ms = 100;
  StartDaemon("idlereset", options);

  const int fd = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));
  now_ms_ = 90;
  const std::string ping = PingFrames(1);
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));
  ASSERT_TRUE(daemon_->PollOnce(0));  // read at t=90 restarts the window
  ASSERT_EQ(ReadResponses(fd, 1).size(), 1u);

  now_ms_ = 180;  // 90ms since last read: still under
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 1);
  now_ms_ = 190;  // 100ms since last read: expired
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 0);
  EXPECT_EQ(daemon_->overload_stats().idle_closes, 1);
  ::close(fd);
}

TEST_F(OverloadTest, WriteStallForceClosesNonReadingPeer) {
  DaemonOptions options;
  options.write_stall_timeout_ms = 100;
  // Small kernel send buffer so a non-reading peer leaves pending output
  // in the daemon's userspace buffer.
  options.send_buffer_bytes = 8192;
  StartDaemon("stall", options);

  const int fd = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));

  // Pump ~8000 pings through without ever reading a response: response
  // bytes (~49 each, ~390KB total) exceed any kernel buffering, so the
  // daemon's out buffer stays non-empty with no progress.
  const std::string batch = PingFrames(200);
  for (int round = 0; round < 40; ++round) {
    size_t sent = 0;
    while (sent < batch.size()) {
      const ssize_t n = ::send(fd, batch.data() + sent, batch.size() - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else {
        ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      }
      ASSERT_TRUE(daemon_->PollOnce(0));
    }
  }
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 1);
  EXPECT_EQ(daemon_->overload_stats().stall_closes, 0);

  now_ms_ = 100;  // no write progress for the whole window
  ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->connection_count(), 0);
  EXPECT_EQ(daemon_->overload_stats().stall_closes, 1);
  EXPECT_EQ(Counter("service.overload.stall_closes"), 1);
  ::close(fd);
}

TEST_F(OverloadTest, InputCapBreachAnswersTooLargeAndCloses) {
  DaemonOptions options;
  options.max_input_buffer_bytes = kMaxFrameBytes + 4;  // the minimum
  StartDaemon("toolarge", options);

  const int fd = ConnectRaw(socket_path_);
  ASSERT_TRUE(daemon_->PollOnce(0));

  // Two maximal-ish frames in one burst exceed the cap before any frame
  // is served. The old behavior silently broke the read loop; now the
  // client gets a structured kTooLarge response, then EOF.
  std::string burst;
  const std::string big(40000, 'x');
  AppendFrame(&burst, big);
  AppendFrame(&burst, big);
  size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n =
        ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  ASSERT_TRUE(daemon_->PollOnce(0));
  ASSERT_TRUE(daemon_->PollOnce(0));  // flush + reap

  const auto responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, WireStatus::kTooLarge);
  EXPECT_NE(responses[0].payload.find("input buffer cap"), std::string::npos);
  // The daemon closed with part of the oversized burst still unread, so
  // the client sees either a clean EOF or ECONNRESET — both are "closed".
  char byte = 0;
  const ssize_t closed = ::recv(fd, &byte, 1, 0);
  EXPECT_TRUE(closed == 0 || (closed < 0 && errno == ECONNRESET));
  EXPECT_EQ(daemon_->overload_stats().too_large_closes, 1);
  EXPECT_EQ(Counter("service.overload.too_large_closes"), 1);
  EXPECT_EQ(daemon_->connection_count(), 0);
  ::close(fd);
}

TEST_F(OverloadTest, CreateValidatesOverloadKnobs) {
  AdmissionServiceConfig config;
  config.classes = {{"gold", 0.001}};
  config.registry.shards = 1;
  config.registry.capacity = 64;
  auto service = AdmissionService::Create(config);
  ASSERT_TRUE(service.ok());
  DaemonOptions options;
  options.socket_path = TempSocketPath("validate");
  options.max_connections = 0;
  EXPECT_FALSE(AdmitDaemon::Create(service->get(), options).ok());
  options.max_connections = 4;
  options.idle_timeout_ms = -1;
  EXPECT_FALSE(AdmitDaemon::Create(service->get(), options).ok());
  options.idle_timeout_ms = 0;
  options.max_input_buffer_bytes = 100;  // cannot hold one maximal frame
  EXPECT_FALSE(AdmitDaemon::Create(service->get(), options).ok());
  options.max_input_buffer_bytes = kMaxFrameBytes + 4;
  options.max_output_buffer_bytes = 100;
  EXPECT_FALSE(AdmitDaemon::Create(service->get(), options).ok());
  std::remove(options.socket_path.c_str());
}

// ---------------------------------------------------------------------
// Client-side resilience, against raw scripted servers so the daemon's
// behavior can't mask client bugs.
// ---------------------------------------------------------------------

// Minimal scripted server: accepts one connection and runs `serve` on it.
class RawServer {
 public:
  RawServer(const std::string& path, std::function<void(int fd)> serve)
      : path_(path) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    EXPECT_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    thread_ = std::thread([this, serve = std::move(serve)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        serve(fd);
        ::close(fd);
      }
    });
  }

  ~RawServer() {
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::thread thread_;
};

// Reads one request frame off `fd` (blocking). Returns false on EOF.
bool ReadOneRequestFrame(int fd) {
  std::string buffer;
  char chunk[512];
  for (;;) {
    size_t consumed = 0;
    std::string_view payload;
    if (NextFrame(buffer, &consumed, &payload) == FrameParse::kFrame) {
      return true;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

TEST(ClientBackoffTest, DeterministicJitterHonorsRetryAfterFloor) {
  const std::string path = TempSocketPath("backoff");
  // Server answers every request kOverloaded with retry_after=250 on a
  // connection it keeps open.
  const auto serve = [](int fd) {
    Response overloaded;
    overloaded.status = WireStatus::kOverloaded;
    overloaded.retry_after_ms = 250;
    std::string frame;
    AppendFrame(&frame, EncodeResponse(overloaded));
    while (ReadOneRequestFrame(fd)) {
      if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) break;
      // One frame consumed per response; drain per request.
    }
  };

  const auto run_once = [&path, &serve](std::vector<int>* sleeps) {
    RawServer server(path, serve);
    ClientOptions options;
    options.max_retries = 3;
    options.backoff_initial_ms = 100;
    options.backoff_max_ms = 1000;
    options.backoff_multiplier = 2.0;
    options.backoff_seed = 42;
    options.sleep_ms = [sleeps](int ms) { sleeps->push_back(ms); };
    auto client = AdmitClient::Connect(path, options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const auto response = (*client)->Ping();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // Budget exhausted: the last kOverloaded response is surfaced.
    EXPECT_EQ(response->status, WireStatus::kOverloaded);
    EXPECT_EQ((*client)->retries(), 3);
  };

  std::vector<int> sleeps;
  run_once(&sleeps);
  ASSERT_EQ(sleeps.size(), 3u);
  // Attempts 0 and 1 jitter to [50,100] and [100,200]; the 250ms hint
  // floors both. Attempt 2 jitters to [200,400], so the floor only
  // clips its lower half.
  EXPECT_EQ(sleeps[0], 250);
  EXPECT_EQ(sleeps[1], 250);
  EXPECT_GE(sleeps[2], 250);
  EXPECT_LE(sleeps[2], 400);

  // Same seed, same schedule: the jitter stream is deterministic.
  std::vector<int> replay;
  run_once(&replay);
  EXPECT_EQ(sleeps, replay);
}

TEST(ClientErrorTest, DistinguishesTornFromMalformedFrames) {
  // (a) Torn frame: length prefix promises 100 bytes, 10 arrive, EOF.
  {
    const std::string path = TempSocketPath("torn");
    RawServer server(path, [](int fd) {
      if (!ReadOneRequestFrame(fd)) return;
      const char prefix[4] = {100, 0, 0, 0};
      ::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL);
      const char partial[10] = {};
      ::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
    });
    auto client = AdmitClient::Connect(path);
    ASSERT_TRUE(client.ok());
    const auto response = (*client)->Ping();
    ASSERT_FALSE(response.ok());
    // Transport-level tear: retryable (kInternal), named as such.
    EXPECT_EQ(response.status().code(), common::StatusCode::kInternal);
    EXPECT_NE(response.status().message().find("closed mid-frame"),
              std::string::npos)
        << response.status().ToString();
    EXPECT_NE(response.status().message().find("14 of 104"),
              std::string::npos)
        << response.status().ToString();
  }

  // (b) Malformed frame: oversized declared length. Protocol-level:
  // kInvalidArgument and never retried, even with budget available.
  {
    const std::string path = TempSocketPath("malformed");
    RawServer server(path, [](int fd) {
      if (!ReadOneRequestFrame(fd)) return;
      const uint32_t huge = kMaxFrameBytes + 1;
      char prefix[4];
      std::memcpy(prefix, &huge, sizeof(huge));
      ::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL);
    });
    ClientOptions options;
    options.max_retries = 3;
    options.sleep_ms = [](int) {};
    auto client = AdmitClient::Connect(path, options);
    ASSERT_TRUE(client.ok());
    const auto response = (*client)->Ping();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_NE(response.status().message().find("malformed frame"),
              std::string::npos);
    EXPECT_EQ((*client)->retries(), 0);  // not a retryable failure
  }

  // (c) EOF before any response byte gets its own wording.
  {
    const std::string path = TempSocketPath("noanswer");
    RawServer server(path, [](int fd) { ReadOneRequestFrame(fd); });
    auto client = AdmitClient::Connect(path);
    ASSERT_TRUE(client.ok());
    const auto response = (*client)->Ping();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), common::StatusCode::kInternal);
    EXPECT_NE(response.status().message().find("before responding"),
              std::string::npos);
  }
}

TEST(ClientErrorTest, RequestDeadlineExpiresAgainstSilentServer) {
  const std::string path = TempSocketPath("deadline");
  std::atomic<bool> release{false};
  RawServer server(path, [&release](int fd) {
    ReadOneRequestFrame(fd);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    (void)fd;
  });
  ClientOptions options;
  options.request_timeout_ms = 100;
  auto client = AdmitClient::Connect(path, options);
  ASSERT_TRUE(client.ok());
  const auto response = (*client)->Ping();
  release.store(true);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), common::StatusCode::kInternal);
  EXPECT_NE(response.status().message().find("deadline"), std::string::npos)
      << response.status().ToString();
}

TEST(ClientReconnectTest, RetriesAcrossDaemonRestart) {
  AdmissionServiceConfig config;
  config.classes = {{"gold", 0.001}};
  config.registry.shards = 1;
  config.registry.capacity = 256;
  auto service = AdmissionService::Create(config);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->PublishLimits({50}).ok());

  const std::string path = TempSocketPath("restart");
  DaemonOptions daemon_options;
  daemon_options.socket_path = path;
  daemon_options.poll_interval_ms = 10;

  auto daemon = AdmitDaemon::Create(service->get(), daemon_options);
  ASSERT_TRUE(daemon.ok());
  std::thread serve([&daemon] { (void)(*daemon)->Serve(); });

  ClientOptions client_options;
  client_options.max_retries = 8;
  client_options.backoff_initial_ms = 5;
  client_options.backoff_max_ms = 20;
  auto client = AdmitClient::Connect(path, client_options);
  ASSERT_TRUE(client.ok());
  const auto first = (*client)->AdmitClass(7, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, WireStatus::kOk);

  // Restart the daemon under the client's feet.
  (*daemon)->RequestShutdown();
  serve.join();
  daemon->reset();
  auto daemon2 = AdmitDaemon::Create(service->get(), daemon_options);
  ASSERT_TRUE(daemon2.ok());
  std::thread serve2([&daemon2] { (void)(*daemon2)->Serve(); });

  // The dead connection surfaces as a transport error internally; the
  // retry loop reconnects. The pre-assigned id makes the admit
  // exactly-once: the session survived (same service), so kDuplicate is
  // the retried success.
  const auto retried = (*client)->AdmitClass(7, 0);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->status, WireStatus::kDuplicate);
  EXPECT_GE((*client)->retries(), 1);

  (*daemon2)->RequestShutdown();
  serve2.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zonestream::service
