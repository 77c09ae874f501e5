#include "service/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "raw_socket.h"
#include "service/admission_service.h"
#include "service/client.h"
#include "service/protocol.h"

namespace zonestream::service {
namespace {

std::string TempSocketPath(const char* tag) {
  // Unix socket paths are short (sun_path ~108 bytes); use /tmp directly.
  return std::string("/tmp/zs_daemon_test_") + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

class DaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(const char* tag) {
    AdmissionServiceConfig config;
    config.classes = {{"gold", 0.001}, {"silver", 0.01}, {"bronze", 0.05}};
    config.registry.shards = 4;
    config.registry.capacity = 4096;
    auto service = AdmissionService::Create(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    ASSERT_TRUE(service_->PublishLimits({10, 20, 30}).ok());

    socket_path_ = TempSocketPath(tag);
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.poll_interval_ms = 10;
    auto daemon = AdmitDaemon::Create(service_.get(), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
    serve_thread_ = std::thread([this] { serve_status_ = daemon_->Serve(); });
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      daemon_->RequestShutdown();
      if (serve_thread_.joinable()) serve_thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
      daemon_.reset();
    }
    if (!socket_path_.empty()) std::remove(socket_path_.c_str());
  }

  std::unique_ptr<AdmissionService> service_;
  std::unique_ptr<AdmitDaemon> daemon_;
  std::thread serve_thread_;
  common::Status serve_status_ = common::Status::Ok();
  std::string socket_path_;
};

TEST_F(DaemonTest, PingAndFullSessionLifecycle) {
  StartDaemon("lifecycle");
  auto client = AdmitClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const auto pong = (*client)->Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->status, WireStatus::kOk);

  const auto admitted = (*client)->AdmitClass(0, 0);
  ASSERT_TRUE(admitted.ok());
  ASSERT_EQ(admitted->status, WireStatus::kOk);
  EXPECT_GE(admitted->session_id, 1u);
  EXPECT_EQ(admitted->occupancy, 1);
  EXPECT_EQ(admitted->limit, 10);

  const auto by_tolerance = (*client)->AdmitTolerance(0, 0.02);
  ASSERT_TRUE(by_tolerance.ok());
  ASSERT_EQ(by_tolerance->status, WireStatus::kOk);
  EXPECT_EQ(by_tolerance->class_index, 1u);

  const auto moved =
      (*client)->Transition(admitted->session_id, 2);
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ(moved->status, WireStatus::kOk);
  EXPECT_EQ(moved->class_index, 2u);

  const auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->live_sessions, 2);
  ASSERT_EQ(stats->classes.size(), 3u);
  EXPECT_EQ(stats->classes[1].occupancy, 1);
  EXPECT_EQ(stats->classes[2].occupancy, 1);

  const auto digest = (*client)->Digest();
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->status, WireStatus::kOk);
  EXPECT_EQ(digest->digest, service_->Digest());
  EXPECT_EQ(digest->occupancy, 2);  // live count rides along for ctl

  const auto torn = (*client)->Teardown(admitted->session_id);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->status, WireStatus::kOk);
  const auto gone = (*client)->Teardown(admitted->session_id);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status, WireStatus::kNotFound);
}

TEST_F(DaemonTest, ErrorStatusesCrossTheWire) {
  StartDaemon("errors");
  auto client = AdmitClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  const auto unknown = (*client)->AdmitClass(0, 99);
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(unknown->status, WireStatus::kUnknownClass);

  const auto duplicate_id = (*client)->AdmitClass(5, 0);
  ASSERT_TRUE(duplicate_id.ok());
  ASSERT_EQ(duplicate_id->status, WireStatus::kOk);
  const auto duplicate = (*client)->AdmitClass(5, 1);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->status, WireStatus::kDuplicate);

  // Fill class 0 (limit 10; session 5 already holds one slot).
  for (int i = 0; i < 9; ++i) {
    const auto outcome = (*client)->AdmitClass(0, 0);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->status, WireStatus::kOk) << i;
  }
  const auto full = (*client)->AdmitClass(0, 0);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->status, WireStatus::kRejectedCapacity);
  EXPECT_EQ(full->occupancy, 10);
  EXPECT_EQ(full->limit, 10);
}

TEST_F(DaemonTest, CheckpointCallbackIsInvoked) {
  StartDaemon("checkpoint");
  std::atomic<int> calls{0};
  daemon_->SetCheckpointCallback(
      [&]() -> common::StatusOr<std::string> {
        calls.fetch_add(1);
        return std::string("/fake/checkpoint-1.zsnap");
      });
  auto client = AdmitClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  const auto checkpoint = (*client)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->status, WireStatus::kOk);
  EXPECT_EQ(checkpoint->payload, "/fake/checkpoint-1.zsnap");
  EXPECT_EQ(checkpoint->digest, service_->Digest());
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(DaemonTest, CheckpointWithoutCallbackIsUnsupported) {
  StartDaemon("nocheckpoint");
  auto client = AdmitClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  const auto checkpoint = (*client)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->status, WireStatus::kUnsupportedOp);
}

TEST_F(DaemonTest, MalformedFrameDropsOnlyThatConnection) {
  StartDaemon("malformed");

  // Raw socket speaking garbage: a frame whose payload is not a Request.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string garbage_frame;
  AppendFrame(&garbage_frame, "this is not a request");
  ASSERT_EQ(::send(fd, garbage_frame.data(), garbage_frame.size(), 0),
            static_cast<ssize_t>(garbage_frame.size()));
  // The daemon answers malformed_request then closes; either a response
  // frame followed by EOF or an immediate EOF is acceptable. Just drain.
  char buffer[256];
  while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
  }
  ::close(fd);

  // A well-formed client still works afterwards.
  auto client = AdmitClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  const auto pong = (*client)->Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->status, WireStatus::kOk);

  // An oversized declared frame length also gets the connection dropped
  // without disturbing others.
  const int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const uint32_t huge = kMaxFrameBytes + 1;
  char length[4] = {static_cast<char>(huge & 0xff),
                    static_cast<char>((huge >> 8) & 0xff),
                    static_cast<char>((huge >> 16) & 0xff),
                    static_cast<char>((huge >> 24) & 0xff)};
  ASSERT_EQ(::send(fd2, length, sizeof(length), 0), 4);
  while (::recv(fd2, buffer, sizeof(buffer), 0) > 0) {
  }
  ::close(fd2);
  const auto still = (*client)->Ping();
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->status, WireStatus::kOk);
}

TEST_F(DaemonTest, ConcurrentClients) {
  StartDaemon("concurrent");
  ASSERT_TRUE(service_->PublishLimits({4096, 4096, 4096}).ok());
  constexpr int kClients = 4;
  constexpr int kCycles = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = AdmitClient::Connect(socket_path_);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCycles; ++i) {
        const auto admitted =
            (*client)->AdmitClass(0, static_cast<uint32_t>(c % 3));
        if (!admitted.ok() || admitted->status != WireStatus::kOk) {
          failures.fetch_add(1);
          return;
        }
        const auto torn = (*client)->Teardown(admitted->session_id);
        if (!torn.ok() || torn->status != WireStatus::kOk) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service_->registry().live(), 0);
  EXPECT_GE(daemon_->requests_served(), kClients * kCycles * 2);
}

TEST_F(DaemonTest, ShutdownOpStopsServe) {
  StartDaemon("shutdown");
  auto client = AdmitClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  const auto response = (*client)->Shutdown();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok());
  daemon_.reset();
  std::remove(socket_path_.c_str());
  socket_path_.clear();
}

TEST_F(DaemonTest, FrameSplitAcrossSendsWithPausesIsServed) {
  StartDaemon("split");
  const int fd = ConnectRaw(socket_path_);
  Request admit;
  admit.op = OpCode::kAdmitClass;
  admit.class_index = 1;
  std::string frame;
  AppendFrame(&frame, EncodeRequest(admit));
  // Cut inside the length prefix and inside the payload; each pause lets
  // the daemon read the partial frame and go back to waiting.
  SendAll(fd, frame.substr(0, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  SendAll(fd, frame.substr(2, frame.size() - 5));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  SendAll(fd, frame.substr(frame.size() - 3));
  const auto responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, WireStatus::kOk);
  EXPECT_EQ(responses[0].class_index, 1u);
  EXPECT_EQ(responses[0].occupancy, 1);
  ::close(fd);
}

// Daemon driven by hand through PollOnce (no serve thread), so the spin
// counters can be read exactly between polls.
class DaemonPollTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AdmissionServiceConfig config;
    config.classes = {{"gold", 0.001}};
    config.registry.shards = 1;
    config.registry.capacity = 256;
    auto service = AdmissionService::Create(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    ASSERT_TRUE(service_->PublishLimits({100}).ok());
    socket_path_ = TempSocketPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.metrics = &metrics_;
    auto daemon = AdmitDaemon::Create(service_.get(), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
    spins_ = AdmitDaemon::SpinsOnHost(std::thread::hardware_concurrency());
  }

  void TearDown() override {
    if (fd_ >= 0) ::close(fd_);
    daemon_.reset();
    std::remove(socket_path_.c_str());
  }

  // Connects a client and polls until the daemon has accepted it.
  void Connect() {
    fd_ = ConnectRaw(socket_path_);
    for (int i = 0; i < 100 && daemon_->connection_count() == 0; ++i) {
      ASSERT_TRUE(daemon_->PollOnce(10));
    }
    ASSERT_EQ(daemon_->connection_count(), 1);
  }

  // Sends `frames` and polls until the daemon has served `total` requests.
  void ServeUntil(const std::string& frames, int64_t total) {
    SendAll(fd_, frames);
    for (int i = 0; i < 100 && daemon_->requests_served() < total; ++i) {
      ASSERT_TRUE(daemon_->PollOnce(10));
    }
    ASSERT_EQ(daemon_->requests_served(), total);
  }

  obs::Registry metrics_;
  std::unique_ptr<AdmissionService> service_;
  std::unique_ptr<AdmitDaemon> daemon_;
  std::string socket_path_;
  int fd_ = -1;
  bool spins_ = false;  // whether daemons spin on the host running the test
};

TEST(DaemonSpinTest, SpinsOnlyWithMoreThanOneOnlineCpu) {
  EXPECT_FALSE(AdmitDaemon::SpinsOnHost(0));  // unknown count
  EXPECT_FALSE(AdmitDaemon::SpinsOnHost(1));
  EXPECT_TRUE(AdmitDaemon::SpinsOnHost(2));
  EXPECT_TRUE(AdmitDaemon::SpinsOnHost(4));
  EXPECT_TRUE(AdmitDaemon::SpinsOnHost(256));
}

TEST_F(DaemonPollTest, PollOnceZeroNeverSpins) {
  Connect();
  ServeUntil(PingFrames(1), 1);
  EXPECT_EQ(daemon_->spin_stats().spin_polls, 0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(daemon_->PollOnce(0));
  EXPECT_EQ(daemon_->spin_stats().spin_polls, 0);
  // The spin was armed all along: the first poll with a timeout takes it.
  ASSERT_TRUE(daemon_->PollOnce(1));
  EXPECT_EQ(daemon_->spin_stats().spin_polls > 0, spins_);
}

TEST_F(DaemonPollTest, SpinAnswersRequestSentShortlyAfterServedOne) {
  Connect();
  ServeUntil(PingFrames(1), 1);
  ASSERT_EQ(ReadResponses(fd_, 1).size(), 1u);
  // The next request is on the wire before the daemon's next poll, so
  // the spin's first zero-timeout poll finds it and no wake-up is taken.
  SendAll(fd_, PingFrames(1));
  ASSERT_TRUE(daemon_->PollOnce(1000));
  ASSERT_EQ(daemon_->requests_served(), 2);
  const int64_t hits = spins_ ? 1 : 0;
  EXPECT_EQ(daemon_->spin_stats().spin_hits, hits);
  EXPECT_EQ(metrics_.GetCounter("service.daemon.spin_hits")->value(), hits);
  EXPECT_EQ(metrics_.GetCounter("service.daemon.spin_polls")->value(),
            daemon_->spin_stats().spin_polls);
  const auto responses = ReadResponses(fd_, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, WireStatus::kOk);
}

TEST_F(DaemonPollTest, IdleDaemonStopsSpinningAfterOneWindow) {
  Connect();
  ServeUntil(PingFrames(1), 1);
  // Nothing arrives: the spin runs out its window, then the poll blocks.
  ASSERT_TRUE(daemon_->PollOnce(1));
  const int64_t polls = daemon_->spin_stats().spin_polls;
  EXPECT_EQ(polls > 0, spins_);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(daemon_->PollOnce(1));
  EXPECT_EQ(daemon_->spin_stats().spin_polls, polls);
  EXPECT_EQ(daemon_->spin_stats().spin_hits, 0);
}

TEST_F(DaemonPollTest, BurstLargerThanReadBufferIsServedInOnePoll) {
  Connect();
  const std::string burst = PingFrames(600);
  ASSERT_GT(burst.size(), 3 * 4096u);
  SendAll(fd_, burst);
  // Every recv that fills the 4 KiB buffer is followed by another, so the
  // whole queued burst is read and served by a single poll.
  ASSERT_TRUE(daemon_->PollOnce(1000));
  ASSERT_EQ(daemon_->requests_served(), 600);
  const auto responses = ReadResponses(fd_, 600);
  ASSERT_EQ(responses.size(), 600u);
  for (const Response& response : responses) {
    EXPECT_EQ(response.status, WireStatus::kOk);
  }
}

TEST_F(DaemonPollTest, PeerClosedWithResponsePendingIsReaped) {
  Connect();
  SendAll(fd_, PingFrames(1));
  ::close(fd_);
  fd_ = -1;
  // The response cannot be delivered; the connection must still go, or
  // its hangup would wake every later poll at once.
  for (int i = 0; i < 3 && daemon_->connection_count() > 0; ++i) {
    ASSERT_TRUE(daemon_->PollOnce(10));
  }
  EXPECT_EQ(daemon_->connection_count(), 0);
  EXPECT_EQ(daemon_->requests_served(), 1);
}

TEST(DaemonCreateTest, RejectsUnbindablePath) {
  AdmissionServiceConfig config;
  config.classes = {{"gold", 0.001}};
  config.registry.shards = 1;
  config.registry.capacity = 64;
  auto service = AdmissionService::Create(config);
  ASSERT_TRUE(service.ok());
  DaemonOptions options;
  options.socket_path = "/nonexistent_dir_zs/x.sock";
  EXPECT_FALSE(AdmitDaemon::Create(service->get(), options).ok());
}

}  // namespace
}  // namespace zonestream::service
