#include "driver/trace.h"

#include <cstdio>

#include "driver/stats.h"

namespace zsbench {
namespace {

thread_local ThreadLog* t_log = nullptr;

struct SpanInfo {
  const char* name;
  Layer layer;
};

constexpr SpanInfo kSpanInfo[kNumSpanIds] = {
    {"harness.run", Layer::kHarness},
    {"harness.setup", Layer::kHarness},
    {"harness.checks", Layer::kHarness},
    {"service.create", Layer::kService},
    {"service.daemon.create", Layer::kService},
    {"service.protocol.encode", Layer::kService},
    {"service.protocol.decode", Layer::kService},
    {"service.socket.send", Layer::kService},
    {"service.socket.wait", Layer::kService},
    {"service.socket.recv", Layer::kService},
    {"service.client.call", Layer::kService},
    {"service.client.control", Layer::kService},
    {"service.daemon.poll", Layer::kService},
    {"service.publish", Layer::kService},
    {"service.inspect", Layer::kService},
    {"core.model", Layer::kCore},
    {"core.table_build", Layer::kCore},
    {"core.max_streams", Layer::kCore},
    {"core.bound", Layer::kCore},
    {"workload.content_prep", Layer::kWorkload},
    {"server.plan", Layer::kServer},
    {"server.create", Layer::kServer},
    {"server.round", Layer::kServer},
    {"server.round_degraded", Layer::kServer},
    {"server.round_plain", Layer::kServer},
    {"server.round_hooked", Layer::kServer},
    {"server.churn", Layer::kServer},
    {"server.export_state", Layer::kServer},
    {"recovery.encode_snapshot", Layer::kRecovery},
    {"recovery.decode_snapshot", Layer::kRecovery},
    {"obs.trace_clear", Layer::kObs},
    {"sim.replicated_late", Layer::kSim},
    {"sim.is_error", Layer::kSim},
    {"sim.rounds", Layer::kSim},
    {"sim.is_rounds", Layer::kSim},
    {"sim.create", Layer::kSim},
    {"common.pool", Layer::kCommon},
};

constexpr const char* kLayerNames[kNumLayers] = {
    "harness", "service", "server", "sim", "core",
    "workload", "obs", "recovery", "common",
};

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}

const char* SpanName(SpanId id) {
  return kSpanInfo[static_cast<int>(id)].name;
}

Layer SpanLayer(SpanId id) { return kSpanInfo[static_cast<int>(id)].layer; }

void Tracer::AttachThisThread(const char* thread_name) {
  auto log = std::make_unique<ThreadLog>();
  log->thread_name = thread_name;
  log->open.reserve(64);
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::move(log));
  t_log = logs_.back().get();
}

void Tracer::DetachThisThread() { t_log = nullptr; }

bool Tracer::Active() { return t_log != nullptr; }

std::vector<double> Tracer::Durations(SpanId id, bool per_op) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    for (const Span& span : log->spans) {
      if (span.id != id) continue;
      double seconds = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      if (per_op) {
        if (span.tag == 0) continue;
        seconds /= static_cast<double>(span.tag);
      }
      out.push_back(seconds);
    }
  }
  return out;
}

std::vector<Span> Tracer::Spans(SpanId id) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    for (const Span& span : log->spans) {
      if (span.id == id) out.push_back(span);
    }
  }
  return out;
}

int64_t Tracer::SpanCount() const {
  int64_t count = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) count += static_cast<int64_t>(log->spans.size());
  return count;
}

std::array<double, kNumLayers> Tracer::SelfTimeByLayer(
    const std::string& thread_name) const {
  std::array<double, kNumLayers> self{};
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    if (log->thread_name != thread_name) continue;
    const std::deque<Span>& spans = log->spans;
    std::vector<int64_t> self_ns(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].async) continue;
      const int64_t duration = spans[i].end_ns - spans[i].start_ns;
      self_ns[i] += duration;
      if (spans[i].parent >= 0) {
        self_ns[static_cast<size_t>(spans[i].parent)] -= duration;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].async) continue;
      self[static_cast<int>(SpanLayer(spans[i].id))] +=
          static_cast<double>(self_ns[i]) * 1e-9;
    }
  }
  return self;
}

double Tracer::RootSeconds(const std::string& thread_name) const {
  double seconds = 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    if (log->thread_name != thread_name) continue;
    for (const Span& span : log->spans) {
      if (!span.async && span.parent < 0) {
        seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
  }
  return seconds;
}

int64_t Tracer::overflowed() const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) total += log->overflowed;
  return total;
}

bool Tracer::WriteTsv(const std::string& path, int64_t base_ns) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  // Header: one "# span <id> <name> <layer>" line per span name and one
  // "# log <n> <thread>" line per thread log; then one row per span with
  // numeric ids (the dumps run to millions of rows).
  for (int id = 0; id < kNumSpanIds; ++id) {
    std::fprintf(file, "# span %d %s %s\n", id,
                 SpanName(static_cast<SpanId>(id)),
                 LayerName(SpanLayer(static_cast<SpanId>(id))));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t n = 0; n < logs_.size(); ++n) {
    std::fprintf(file, "# log %zu %s\n", n, logs_[n]->thread_name.c_str());
  }
  std::fprintf(file, "log\tindex\tparent\tspan\tstart_us\tend_us\ttag\tasync\n");
  for (size_t n = 0; n < logs_.size(); ++n) {
    const std::deque<Span>& spans = logs_[n]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::fprintf(file, "%zu\t%zu\t%d\t%d\t%.3f\t%.3f\t%llu\t%d\n", n, i,
                   span.parent, static_cast<int>(span.id),
                   static_cast<double>(span.start_ns - base_ns) * 1e-3,
                   static_cast<double>(span.end_ns - base_ns) * 1e-3,
                   static_cast<unsigned long long>(span.tag),
                   span.async ? 1 : 0);
    }
  }
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(SpanId id, uint64_t tag) : log_(t_log) {
  if (log_ == nullptr) return;
  if (log_->spans.size() >= kMaxSpansPerThread) {
    // Not stored: children attach to the nearest stored ancestor, so the
    // self-time sum stays exact (this span's time lands on its parent).
    ++log_->overflowed;
    log_ = nullptr;
    return;
  }
  Span span;
  span.id = id;
  span.tag = tag;
  span.parent = log_->open.empty() ? -1 : log_->open.back();
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->open.push_back(index_);
  span.start_ns = NowNs();
  log_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  log_->open.pop_back();
}

void ScopedSpan::set_tag(uint64_t tag) {
  if (log_ != nullptr) log_->spans[static_cast<size_t>(index_)].tag = tag;
}

void RecordAsyncSpan(SpanId id, int64_t start_ns, int64_t end_ns,
                     uint64_t request_id) {
  ThreadLog* log = t_log;
  if (log == nullptr || log->spans.size() >= kMaxSpansPerThread) return;
  Span span;
  span.id = id;
  span.tag = request_id;
  span.parent = log->open.empty() ? -1 : log->open.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.async = true;
  log->spans.push_back(span);
}

}  // namespace zsbench
