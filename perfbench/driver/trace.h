// In-memory span tracing for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each layer's public functions (nothing under src/ is instrumented). A
// span has a name, start and end, the span that caused it (its parent on
// the same thread), and a tag: the request id for request-scoped spans,
// otherwise the number of operations the span covers (a span around a
// batch of 1000 simulated rounds has tag 1000). Every thread that records
// attaches its own log, so recording takes no lock; the logs are written
// out as TSV when the run ends.
//
// Self time: on one thread the spans nest, so a span's self time is its
// duration minus its direct children's durations. Summed by layer over the
// main thread, self times add up exactly to the root span's duration (the
// traced wall time); the part no layer span covers is the harness's own.
// Request-scoped ("async") spans overlap each other and are kept out of
// that sum.
#ifndef ZS_PERFBENCH_DRIVER_TRACE_H_
#define ZS_PERFBENCH_DRIVER_TRACE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace zsbench {

// Modules under src/ that spans are attributed to, plus the harness.
enum class Layer : uint8_t {
  kHarness,
  kService,
  kServer,
  kSim,
  kCore,
  kWorkload,
  kObs,
  kRecovery,
  kCommon,
};
inline constexpr int kNumLayers = 9;
const char* LayerName(Layer layer);

// Every span the driver records. The name's first segment is its layer.
enum class SpanId : uint16_t {
  kRun,               // harness: the whole traced pass
  kSetup,             // harness: one setup repetition
  kChecks,            // harness: output checks after a phase
  kServiceCreate,     // AdmissionService::Create + PublishTable
  kDaemonCreate,      // AdmitDaemon::Create + connections
  kProtocolEncode,    // EncodeRequest + AppendFrame (tag = requests)
  kProtocolDecode,    // NextFrame + DecodeResponse (tag = responses)
  kSocketSend,        // send() of framed requests
  kSocketWait,        // ppoll() waiting for responses or the next due time
  kSocketRecv,        // recv() of responses
  kClientCall,        // async: one request, send -> response
  kClientControl,     // AdmitClient calls (stats, digest, teardown sweep)
  kDaemonPoll,        // AdmitDaemon::PollOnce (daemon thread)
  kPublish,           // PublishTable / PublishScale (control thread)
  kServiceInspect,    // Digest / Stats / ReconcileOccupancy
  kCoreModel,         // ServiceTimeModel::ForMultiZoneDisk
  kCoreTableBuild,    // AdmissionTable::Build
  kCoreMaxStreams,    // MaxStreamsByLateProbability
  kCoreBound,         // LateBound / ErrorBound evaluations
  kWorkloadContent,   // VBR generate + fragment + moments
  kServerPlan,        // PlanConfig / PlanDegradedLimit
  kServerCreate,      // MediaServer::Create (+ RestoreState)
  kServerRound,       // MediaServer::RunRound, intact
  kServerRoundDegraded,  // MediaServer::RunRound, failed disk / rebuild
  kServerRoundPlain,     // hook A/B: RunRounds block, no hooks
  kServerRoundHooked,    // hook A/B: obs::Registry + RoundTraceRecorder
  kServerChurn,       // one round's OpenStream / CloseStream calls
  kServerExport,      // MediaServer::ExportState
  kRecoveryEncode,    // recovery::EncodeSnapshot
  kRecoveryDecode,    // recovery::DecodeSnapshot
  kObsTraceClear,     // RoundTraceRecorder::Clear between hooked blocks
  kSimReplicated,     // EstimateLateProbabilityReplicated
  kSimIs,             // EstimateErrorProbabilityIS
  kSimRounds,         // RoundSimulator::RunRound batch (tag = rounds)
  kSimIsRounds,       // ImportanceSampler::RunRound batch (tag = rounds)
  kSimCreate,         // RoundSimulator / ImportanceSampler construction
  kCommonPool,        // ThreadPool construction / teardown
  kCount,
};
inline constexpr int kNumSpanIds = static_cast<int>(SpanId::kCount);
const char* SpanName(SpanId id);
Layer SpanLayer(SpanId id);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t tag = 0;
  int32_t parent = -1;  // index in the same thread's log; -1 for a root
  SpanId id = SpanId::kRun;
  bool async = false;
};

struct ThreadLog {
  std::string thread_name;
  // A deque: appending never moves earlier spans, so recording never
  // stalls on a reallocation.
  std::deque<Span> spans;
  std::vector<int32_t> open;  // indices of the spans currently open
  int64_t overflowed = 0;     // spans not stored once the cap was hit
};

// Spans a thread stores at most (32 bytes each); later spans are counted
// in ThreadLog::overflowed instead.
inline constexpr size_t kMaxSpansPerThread = 6'000'000;

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans the calling thread opens from now on land in a fresh log named
  // `thread_name`, until DetachThisThread().
  void AttachThisThread(const char* thread_name);
  static void DetachThisThread();

  // True while the calling thread records spans.
  static bool Active();

  // Queries read every thread's log: call them once the recording
  // threads have detached or ended.
  //
  // Durations (seconds) of every span `id`, divided by the span's tag
  // when `per_op` (a batch span then yields the mean per operation).
  std::vector<double> Durations(SpanId id, bool per_op) const;
  // Copies of every span `id`.
  std::vector<Span> Spans(SpanId id) const;
  // Spans stored across all logs.
  int64_t SpanCount() const;

  // Self time by layer over `thread_name`'s non-async spans (seconds);
  // their sum equals the thread's root span durations.
  std::array<double, kNumLayers> SelfTimeByLayer(
      const std::string& thread_name) const;
  // Total duration of the root spans of `thread_name` (seconds).
  double RootSeconds(const std::string& thread_name) const;
  int64_t overflowed() const;

  // Writes every log as TSV (times in microseconds from `base_ns`).
  bool WriteTsv(const std::string& path, int64_t base_ns) const;

 private:
  mutable std::mutex mutex_;  // guards logs_ (not the logs' contents)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// RAII span; free (one thread-local load) when the thread is not attached.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId id, uint64_t tag = 1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_tag(uint64_t tag);

 private:
  ThreadLog* log_;
  int32_t index_ = -1;
};

// Records a request-scoped span [start_ns, end_ns] whose parent is the
// span currently open on the calling thread.
void RecordAsyncSpan(SpanId id, int64_t start_ns, int64_t end_ns,
                     uint64_t request_id);

}  // namespace zsbench

#endif  // ZS_PERFBENCH_DRIVER_TRACE_H_
