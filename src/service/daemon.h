// zonestream_admitd's event loop: a unix-domain-socket front-end over an
// AdmissionService.
//
// The loop is deliberately single-threaded (poll() over the listener and
// every connection, nonblocking I/O, per-connection in/out buffers).
// The admission fast path is lock-free, so serving throughput scales by
// running CLIENTS in parallel against the shared AdmissionService — the
// daemon thread only shovels frames; benchmarks drive the service
// directly from N threads (BM_AdmissionServiceThroughput). One thread
// also gives the mutation serialization the registry wants per session
// id for free, and avoids churning RCU reader slots through short-lived
// connection threads.
//
// Overload hardening (docs/SERVICE.md, "Overload & backpressure"): the
// daemon is itself a server with an arrival envelope, and it degrades
// predictably instead of stalling or growing without bound —
//   * accept-time rejection past max_connections (a best-effort
//     kOverloaded frame with a retry-after hint, then close);
//   * a bounded per-poll request budget: frames beyond the budget are
//     consumed and answered kOverloaded + retry_after_ms, never queued;
//   * per-connection idle and write-stall (slowloris) deadlines;
//   * hard caps on BOTH buffer directions — inbound breach answers
//     kTooLarge and closes, outbound breach (a non-reading client)
//     force-closes;
// all of it counted in service.overload.* metrics and the
// DaemonOverloadStats accessor.
//
// Spin-before-block (PollOnce, docs/SERVICE.md): the loop stays awake
// between closely spaced requests instead of paying a wake-up for each,
// counted in service.daemon.spin_* and the DaemonSpinStats accessor.
//
// Checkpointing is injected by the binary (examples/zonestream_admitd)
// so this library does not depend on recovery/: the daemon exposes the
// kCheckpoint op and calls whatever callback main() wired in.
#ifndef ZONESTREAM_SERVICE_DAEMON_H_
#define ZONESTREAM_SERVICE_DAEMON_H_

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "service/admission_service.h"
#include "service/protocol.h"

namespace zonestream::service {

struct DaemonOptions {
  std::string socket_path;
  int max_connections = 64;
  int listen_backlog = 16;
  // Poll timeout for Serve(); also the cadence of the periodic
  // observability flush and the resolution of the deadlines below.
  int poll_interval_ms = 100;

  // --- Overload hardening; 0 disables each deadline/budget. ---

  // Close a connection that has not delivered a byte for this long.
  int idle_timeout_ms = 0;
  // Close a connection whose pending output made no progress (the kernel
  // accepted no bytes) for this long: a slowloris peer or a client that
  // stopped reading.
  int write_stall_timeout_ms = 0;
  // Requests handled per poll cycle across ALL connections; frames
  // beyond the budget are consumed and answered kOverloaded with the
  // retry_after_ms hint instead of being silently queued.
  int max_requests_per_poll = 0;
  // The hint carried in every kOverloaded response (accept-time rejects
  // and shed requests alike).
  int retry_after_ms = 50;
  // Hard cap on buffered response bytes per connection. A breach (the
  // peer is not reading) force-closes the connection.
  size_t max_output_buffer_bytes = 1 << 20;
  // Hard cap on buffered inbound bytes per connection (a client may
  // batch frames, but unbounded buffering is a memory DoS). A breach
  // answers a structured kTooLarge response and closes.
  size_t max_input_buffer_bytes = 4 * (kMaxFrameBytes + 4);
  // SO_SNDBUF for accepted connections (0 = kernel default). Small
  // values make the write-stall deadline bite quickly in tests.
  int send_buffer_bytes = 0;

  // service.overload.* counters and the connection gauge land here;
  // null disables (the per-daemon DaemonOverloadStats still counts).
  obs::Registry* metrics = nullptr;
  // Injectable monotonic clock (milliseconds) for deterministic deadline
  // tests; null uses std::chrono::steady_clock.
  std::function<int64_t()> clock_ms;
};

// Mirror of the service.overload.* counters, always maintained (with or
// without a metrics registry) so tests and the soak can assert exact
// counts.
struct DaemonOverloadStats {
  int64_t rejected_connections = 0;   // accept-time sheds past the cap
  int64_t shed_requests = 0;          // per-poll budget sheds
  int64_t retry_after_issued = 0;     // kOverloaded responses sent
  int64_t idle_closes = 0;            // idle-deadline expiries
  int64_t stall_closes = 0;           // write-stall expiries
  int64_t output_overflow_closes = 0; // outbound buffer-cap breaches
  int64_t too_large_closes = 0;       // inbound buffer-cap breaches
  int64_t peak_connections = 0;       // high-water mark of live conns
};

// Mirror of the service.daemon.spin_* counters: what the spin costs
// (zero-timeout polls) and what it saves (each hit is a wake-up the
// daemon thread did not have to take).
struct DaemonSpinStats {
  int64_t spin_polls = 0;  // zero-timeout polls made while spinning
  int64_t spin_hits = 0;   // spins that ended on a ready socket
};

class AdmitDaemon {
 public:
  // Returns the checkpoint file path on success.
  using CheckpointFn = std::function<common::StatusOr<std::string>()>;

  // Binds and listens on options.socket_path (unlinking a stale socket
  // file first). `service` must outlive the daemon.
  static common::StatusOr<std::unique_ptr<AdmitDaemon>> Create(
      AdmissionService* service, const DaemonOptions& options);

  ~AdmitDaemon();

  AdmitDaemon(const AdmitDaemon&) = delete;
  AdmitDaemon& operator=(const AdmitDaemon&) = delete;

  void SetCheckpointCallback(CheckpointFn callback) {
    checkpoint_ = std::move(callback);
  }

  // Serves until RequestShutdown() or a kShutdown request.
  common::Status Serve();

  // One poll iteration (for tests and custom loops). Returns false once
  // shutdown has been requested and all pending output is flushed.
  //
  // After an iteration that served a request, the next one first polls
  // with a zero timeout until a socket is ready or kSpinWindow has passed
  // since that request, and only then blocks for `timeout_ms`.
  // PollOnce(0) never spins, and neither does a daemon on a host with one
  // online CPU (SpinsOnHost).
  bool PollOnce(int timeout_ms);

  // A few times the cost of waking a thread blocked in poll() (8-9 us of
  // a 16-18 us ping round trip on a 4-vCPU VM), so closely spaced
  // requests find the daemon awake; a lone request costs at most this
  // much CPU.
  static constexpr std::chrono::microseconds kSpinWindow{50};

  // Whether a daemon on a host with `online_cpus` CPUs spins. With one
  // CPU the spin would hold the CPU its clients need to send the request
  // it waits for; 0 (unknown) does not spin either. Create() decides once
  // from std::thread::hardware_concurrency(), not from the creating
  // thread's affinity, which a caller may have pinned to one CPU.
  static bool SpinsOnHost(unsigned online_cpus) { return online_cpus > 1; }

  // Safe from signal handlers and other threads.
  void RequestShutdown() {
    shutdown_.store(true, std::memory_order_relaxed);
  }

  const std::string& socket_path() const { return options_.socket_path; }
  int64_t requests_served() const { return requests_served_; }
  // Snapshot of the overload counters (single-threaded loop: exact
  // between polls; racy-but-monotonic while Serve() runs elsewhere).
  const DaemonOverloadStats& overload_stats() const { return overload_; }
  // Same threading contract as overload_stats().
  const DaemonSpinStats& spin_stats() const { return spin_; }
  int connection_count() const {
    return static_cast<int>(connections_.size());
  }

 private:
  struct Connection {
    int fd = -1;
    std::string in;
    std::string out;
    bool drop = false;        // close after flushing out
    bool force_close = false; // close immediately, pending out discarded
    int64_t last_read_ms = 0;     // last byte received
    int64_t last_progress_ms = 0; // last byte the kernel accepted
  };

  AdmitDaemon(AdmissionService* service, const DaemonOptions& options)
      : service_(service), options_(options) {}

  int64_t NowMs() const;
  // poll() over pollfds_: the spin (when armed), then the blocking wait.
  int WaitReady(int timeout_ms);
  void AcceptPending(int64_t now_ms);
  void ReadFrom(Connection& connection, int64_t now_ms);
  void WriteTo(Connection& connection, int64_t now_ms);
  Response HandleRequest(const Request& request);
  void HandleFrames(Connection& connection, int64_t now_ms);
  // Appends one response frame, enforcing the output cap.
  void AppendResponse(Connection& connection, const Response& response,
                      int64_t now_ms);
  void EnforceDeadlines(int64_t now_ms);
  void Bump(obs::Counter* counter, int64_t* local);

  AdmissionService* service_;
  DaemonOptions options_;
  int listen_fd_ = -1;
  std::vector<Connection> connections_;
  std::vector<pollfd> pollfds_;  // refilled every poll; capacity kept
  std::atomic<bool> shutdown_{false};
  bool spin_on_host_ = false;  // SpinsOnHost(), decided once in Create()
  // Steady-clock deadline of the pending spin, armed by a poll that
  // served a request; 0 when none is pending.
  int64_t spin_deadline_ns_ = 0;
  DaemonSpinStats spin_;
  int64_t requests_served_ = 0;
  int request_budget_ = 0;  // remaining budget in the current poll cycle
  CheckpointFn checkpoint_;

  DaemonOverloadStats overload_;
  // service.overload.* metric handles (null when metrics are disabled).
  obs::Counter* rejected_connections_counter_ = nullptr;
  obs::Counter* shed_requests_counter_ = nullptr;
  obs::Counter* retry_after_counter_ = nullptr;
  obs::Counter* idle_closes_counter_ = nullptr;
  obs::Counter* stall_closes_counter_ = nullptr;
  obs::Counter* output_overflow_counter_ = nullptr;
  obs::Counter* too_large_counter_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* spin_polls_counter_ = nullptr;
  obs::Counter* spin_hits_counter_ = nullptr;
};

}  // namespace zonestream::service

#endif  // ZONESTREAM_SERVICE_DAEMON_H_
