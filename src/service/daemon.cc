#include "service/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

namespace zonestream::service {

namespace {

common::Status ErrnoStatus(const std::string& what) {
  return common::Status::InvalidArgument(what + ": " +
                                         std::strerror(errno));
}

// The spin's clock: real time even under an injected clock_ms, which
// only drives the (millisecond) deadlines.
int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

common::StatusOr<std::unique_ptr<AdmitDaemon>> AdmitDaemon::Create(
    AdmissionService* service, const DaemonOptions& options) {
  if (options.socket_path.empty()) {
    return common::Status::InvalidArgument("socket_path must be set");
  }
  if (options.max_connections <= 0) {
    return common::Status::InvalidArgument("max_connections must be > 0");
  }
  if (options.retry_after_ms < 0 || options.max_requests_per_poll < 0 ||
      options.idle_timeout_ms < 0 || options.write_stall_timeout_ms < 0) {
    return common::Status::InvalidArgument(
        "overload knobs must be non-negative");
  }
  // A single maximal frame must always fit, or the daemon could neither
  // receive nor answer anything.
  if (options.max_input_buffer_bytes < kMaxFrameBytes + 4 ||
      options.max_output_buffer_bytes < kMaxFrameBytes + 4) {
    return common::Status::InvalidArgument(
        "buffer caps must hold at least one maximal frame");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return common::Status::InvalidArgument("socket_path too long for AF_UNIX");
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  auto daemon =
      std::unique_ptr<AdmitDaemon>(new AdmitDaemon(service, options));
  daemon->listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (daemon->listen_fd_ < 0) return ErrnoStatus("socket");
  ::unlink(options.socket_path.c_str());  // stale socket from a crash
  if (::bind(daemon->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + options.socket_path);
  }
  if (::listen(daemon->listen_fd_, options.listen_backlog) != 0) {
    return ErrnoStatus("listen");
  }
  if (obs::Registry* m = options.metrics; m != nullptr) {
    daemon->rejected_connections_counter_ =
        m->GetCounter("service.overload.rejected_connections");
    daemon->shed_requests_counter_ =
        m->GetCounter("service.overload.shed_requests");
    daemon->retry_after_counter_ =
        m->GetCounter("service.overload.retry_after_issued");
    daemon->idle_closes_counter_ =
        m->GetCounter("service.overload.idle_closes");
    daemon->stall_closes_counter_ =
        m->GetCounter("service.overload.stall_closes");
    daemon->output_overflow_counter_ =
        m->GetCounter("service.overload.output_overflow_closes");
    daemon->too_large_counter_ =
        m->GetCounter("service.overload.too_large_closes");
    daemon->connections_gauge_ = m->GetGauge("service.daemon.connections");
    daemon->spin_polls_counter_ = m->GetCounter("service.daemon.spin_polls");
    daemon->spin_hits_counter_ = m->GetCounter("service.daemon.spin_hits");
  }
  daemon->spin_on_host_ = SpinsOnHost(std::thread::hardware_concurrency());
  return daemon;
}

AdmitDaemon::~AdmitDaemon() {
  for (Connection& connection : connections_) {
    if (connection.fd >= 0) ::close(connection.fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

int64_t AdmitDaemon::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AdmitDaemon::Bump(obs::Counter* counter, int64_t* local) {
  ++*local;
  if (counter != nullptr) counter->Increment();
}

void AdmitDaemon::AcceptPending(int64_t now_ms) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error: try next poll
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Over the connection cap: shed at accept time with an explicit
      // overload signal. The send is best-effort (the fd is nonblocking
      // and the peer may already be gone); the close is the contract.
      Response rejected;
      rejected.status = WireStatus::kOverloaded;
      rejected.retry_after_ms =
          static_cast<uint32_t>(options_.retry_after_ms);
      std::string frame;
      AppendFrame(&frame, EncodeResponse(rejected));
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      Bump(rejected_connections_counter_, &overload_.rejected_connections);
      Bump(retry_after_counter_, &overload_.retry_after_issued);
      continue;
    }
    if (options_.send_buffer_bytes > 0) {
      const int sndbuf = options_.send_buffer_bytes;
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    Connection connection;
    connection.fd = fd;
    connection.last_read_ms = now_ms;
    connection.last_progress_ms = now_ms;
    connections_.push_back(std::move(connection));
    overload_.peak_connections =
        std::max(overload_.peak_connections,
                 static_cast<int64_t>(connections_.size()));
  }
}

void AdmitDaemon::ReadFrom(Connection& connection, int64_t now_ms) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      connection.in.append(buffer, static_cast<size_t>(n));
      connection.last_read_ms = now_ms;
      if (connection.in.size() > options_.max_input_buffer_bytes) {
        // The peer batched more than the input cap allows. Refuse the
        // whole batch with a structured response instead of a silent
        // drop: discard the buffered bytes, answer kTooLarge, close.
        connection.in.clear();
        Response too_large;
        too_large.status = WireStatus::kTooLarge;
        too_large.payload = "input buffer cap exceeded; batch fewer frames";
        AppendResponse(connection, too_large, now_ms);
        connection.drop = true;
        Bump(too_large_counter_, &overload_.too_large_closes);
        return;
      }
      // A short read drained the socket: another recv could only return
      // EAGAIN, and level-triggered poll() reports bytes that arrive later.
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {
      connection.drop = true;  // peer closed
    }
    break;  // EAGAIN or error
  }
  HandleFrames(connection, now_ms);
}

void AdmitDaemon::HandleFrames(Connection& connection, int64_t now_ms) {
  size_t offset = 0;
  for (;;) {
    if (connection.force_close) break;
    size_t consumed = 0;
    std::string_view payload;
    const FrameParse parse = NextFrame(
        std::string_view(connection.in).substr(offset), &consumed, &payload);
    if (parse == FrameParse::kError) {
      connection.drop = true;
      break;
    }
    if (parse == FrameParse::kNeedMore) break;
    if (request_budget_ <= 0) {
      // Per-poll budget exhausted: shed this request explicitly. The
      // frame is consumed (never silently queued) and the client gets
      // kOverloaded with the retry-after hint — not decoded, so a shed
      // costs no request parsing at all.
      Response shed;
      shed.status = WireStatus::kOverloaded;
      shed.retry_after_ms = static_cast<uint32_t>(options_.retry_after_ms);
      AppendResponse(connection, shed, now_ms);
      Bump(shed_requests_counter_, &overload_.shed_requests);
      Bump(retry_after_counter_, &overload_.retry_after_issued);
      offset += consumed;
      continue;
    }
    --request_budget_;
    Response response;
    const auto request = DecodeRequest(payload);
    if (!request.ok()) {
      // Answer with the decode error, then drop: a peer that framed a
      // non-request payload is broken or hostile, and later frames on
      // the same connection are not worth trusting.
      response.status = WireStatus::kMalformedRequest;
      response.payload = request.status().message();
      ++requests_served_;
      AppendResponse(connection, response, now_ms);
      connection.drop = true;
      offset += consumed;
      break;
    }
    response = HandleRequest(request.value());
    ++requests_served_;
    AppendResponse(connection, response, now_ms);
    offset += consumed;
  }
  if (offset > 0) connection.in.erase(0, offset);
}

Response AdmitDaemon::HandleRequest(const Request& request) {
  Response response;
  switch (request.op) {
    case OpCode::kPing:
      break;
    case OpCode::kAdmitClass: {
      const ServiceOutcome outcome =
          service_->Admit(request.session_id, request.class_index);
      response.status = WireStatusFromResult(outcome.result);
      response.session_id = outcome.session_id;
      response.class_index = outcome.class_index;
      response.occupancy = outcome.occupancy;
      response.limit = outcome.limit;
      break;
    }
    case OpCode::kAdmitTolerance: {
      const ServiceOutcome outcome =
          service_->AdmitByTolerance(request.session_id, request.tolerance);
      response.status = WireStatusFromResult(outcome.result);
      response.session_id = outcome.session_id;
      response.class_index = outcome.class_index;
      response.occupancy = outcome.occupancy;
      response.limit = outcome.limit;
      break;
    }
    case OpCode::kTeardown: {
      const ServiceOutcome outcome = service_->Teardown(request.session_id);
      response.status = WireStatusFromResult(outcome.result);
      response.session_id = outcome.session_id;
      response.class_index = outcome.class_index;
      response.occupancy = outcome.occupancy;
      break;
    }
    case OpCode::kTransition: {
      const ServiceOutcome outcome =
          service_->Transition(request.session_id, request.class_index);
      response.status = WireStatusFromResult(outcome.result);
      response.session_id = outcome.session_id;
      response.class_index = outcome.class_index;
      response.occupancy = outcome.occupancy;
      response.limit = outcome.limit;
      break;
    }
    case OpCode::kStats: {
      service_->FlushObservability();
      response.payload = EncodeServiceStats(service_->Stats());
      break;
    }
    case OpCode::kCheckpoint: {
      if (!checkpoint_) {
        response.status = WireStatus::kUnsupportedOp;
        response.payload = "no checkpoint callback configured";
        break;
      }
      const auto path = checkpoint_();
      if (!path.ok()) {
        response.status = WireStatus::kInternalError;
        response.payload = path.status().message();
        break;
      }
      response.digest = service_->Digest();
      response.payload = path.value();
      break;
    }
    case OpCode::kDigest:
      response.digest = service_->Digest();
      // Live-session count rides along so `zonestream_ctl admitd digest`
      // can report both without a second round trip.
      response.occupancy =
          static_cast<int64_t>(service_->registry().live());
      break;
    case OpCode::kShutdown:
      RequestShutdown();
      break;
  }
  return response;
}

void AdmitDaemon::AppendResponse(Connection& connection,
                                 const Response& response, int64_t now_ms) {
  if (connection.force_close) return;  // already condemned
  if (connection.out.empty()) connection.last_progress_ms = now_ms;
  AppendFrame(&connection.out, EncodeResponse(response));
  if (connection.out.size() > options_.max_output_buffer_bytes) {
    // The peer is not reading its responses; buffering more is a memory
    // DoS. Discard the backlog and close immediately — the client sees
    // a truncated stream, which its framing detects.
    connection.out.clear();
    connection.force_close = true;
    Bump(output_overflow_counter_, &overload_.output_overflow_closes);
  }
}

void AdmitDaemon::WriteTo(Connection& connection, int64_t now_ms) {
  while (!connection.out.empty()) {
    const ssize_t n = ::send(connection.fd, connection.out.data(),
                             connection.out.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      // The peer is gone (EPIPE, ECONNRESET): nothing left can be
      // delivered. Keeping it would leave the connection unreapable and
      // its hangup would make every later poll return at once.
      connection.out.clear();
      connection.drop = true;
      return;
    }
    connection.last_progress_ms = now_ms;
    connection.out.erase(0, static_cast<size_t>(n));
  }
}

void AdmitDaemon::EnforceDeadlines(int64_t now_ms) {
  if (options_.idle_timeout_ms <= 0 && options_.write_stall_timeout_ms <= 0) {
    return;
  }
  for (Connection& connection : connections_) {
    if (connection.force_close) continue;
    if (options_.write_stall_timeout_ms > 0 && !connection.out.empty() &&
        now_ms - connection.last_progress_ms >=
            options_.write_stall_timeout_ms) {
      // Slowloris / non-reading peer: pending output made no progress
      // for the whole window. Flushing first is hopeless by definition.
      connection.out.clear();
      connection.force_close = true;
      Bump(stall_closes_counter_, &overload_.stall_closes);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && !connection.drop &&
        now_ms - connection.last_read_ms >= options_.idle_timeout_ms) {
      connection.drop = true;  // graceful: pending output still flushes
      Bump(idle_closes_counter_, &overload_.idle_closes);
    }
  }
}

int AdmitDaemon::WaitReady(int timeout_ms) {
  const nfds_t count = pollfds_.size();
  if (spin_deadline_ns_ != 0 && timeout_ms != 0) {
    // The last poll served a request: stay awake for the rest of its
    // window, so a request arriving in it skips the wake-up.
    const int64_t deadline = spin_deadline_ns_;
    spin_deadline_ns_ = 0;
    int64_t polls = 0;
    int ready = 0;
    do {
      ready = ::poll(pollfds_.data(), count, 0);
      ++polls;
    } while (ready == 0 && SteadyNowNs() < deadline);
    spin_.spin_polls += polls;
    if (spin_polls_counter_ != nullptr) spin_polls_counter_->Increment(polls);
    if (ready > 0) Bump(spin_hits_counter_, &spin_.spin_hits);
    if (ready != 0) return ready;
  }
  return ::poll(pollfds_.data(), count, timeout_ms);
}

bool AdmitDaemon::PollOnce(int timeout_ms) {
  if (shutdown_.load(std::memory_order_relaxed)) {
    // Flush what's already queued, then stop.
    const int64_t now_ms = NowMs();
    for (Connection& connection : connections_) WriteTo(connection, now_ms);
    return false;
  }
  pollfds_.clear();
  pollfds_.push_back({listen_fd_, POLLIN, 0});
  for (const Connection& connection : connections_) {
    short events = POLLIN;
    if (!connection.out.empty()) events |= POLLOUT;
    pollfds_.push_back({connection.fd, events, 0});
  }
  const int ready = WaitReady(timeout_ms);
  if (ready < 0 && errno != EINTR) return !shutdown_.load();
  const int64_t now_ms = NowMs();
  request_budget_ = options_.max_requests_per_poll > 0
                        ? options_.max_requests_per_poll
                        : INT_MAX;
  if (ready > 0) {
    const int64_t answered_before =
        requests_served_ + overload_.shed_requests;
    // Serve only the connections that were actually polled: accepting
    // first would grow connections_ past the pollfd array and misindex
    // (or read past) pollfds_ for the tail entries.
    const size_t polled = pollfds_.size() - 1;
    for (size_t i = 0; i < polled; ++i) {
      Connection& connection = connections_[i];
      const short revents = pollfds_[i + 1].revents;
      if ((revents & (POLLERR | POLLHUP)) != 0 && connection.out.empty()) {
        connection.drop = true;
      }
      if ((revents & POLLIN) != 0 && !connection.force_close) {
        ReadFrom(connection, now_ms);
      }
      if (!connection.out.empty()) WriteTo(connection, now_ms);
    }
    if ((pollfds_[0].revents & POLLIN) != 0) AcceptPending(now_ms);
    if (spin_on_host_ &&
        requests_served_ + overload_.shed_requests != answered_before) {
      spin_deadline_ns_ =
          SteadyNowNs() + std::chrono::nanoseconds(kSpinWindow).count();
    }
  }
  EnforceDeadlines(now_ms);
  // Reap dropped connections whose output drained, and force-closed
  // connections unconditionally.
  for (size_t i = 0; i < connections_.size();) {
    Connection& connection = connections_[i];
    if (connection.force_close ||
        (connection.drop && connection.out.empty())) {
      ::close(connection.fd);
      connections_.erase(connections_.begin() +
                         static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
  return true;
}

common::Status AdmitDaemon::Serve() {
  int64_t iterations = 0;
  while (PollOnce(options_.poll_interval_ms)) {
    // Amortize the flush: every poll round under load would re-walk the
    // bucket array per request batch for no observability gain.
    if (++iterations % 16 == 0) service_->FlushObservability();
  }
  // Final flush so a checkpoint-at-exit sees current metrics.
  service_->FlushObservability();
  return common::Status::Ok();
}

}  // namespace zonestream::service
