// Shared measurement helpers for the benchmark driver: the clock, sample
// summaries (median plus the highest percentile that still has at least
// ten samples beyond it), a one-sided Wilson bound, and the per-phase
// result record every workload phase fills in.
#ifndef ZS_PERFBENCH_DRIVER_STATS_H_
#define ZS_PERFBENCH_DRIVER_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zsbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

// CPU nanoseconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
// Excludes time the thread waits, is descheduled or, on a VM that accounts
// steal time, loses to the hypervisor.
int64_t ThreadCpuNs();

// q-quantile with linear interpolation between order statistics; 0 for an
// empty sample. Takes a copy (callers keep their sample order).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Median, the highest of p90/p99/p99.9 backed by >= 10 samples beyond it,
// and the sample count.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  // 0 when fewer than 20 samples (no tail reported)
  int64_t count = 0;
};
Summary Summarize(const std::vector<double>& values);
std::string FormatSummary(const Summary& summary, double scale,
                          const char* unit);

// Lower end of the one-sided Wilson score interval for `successes` out of
// `trials` whose miss probability is `alpha` (e.g. 1e-6). Real-valued
// counts allow design-effect-deflated samples.
double WilsonLower(double successes, double trials, double alpha);

// One-sided standard-normal quantile z with P[Z > z] = alpha.
double NormalUpperQuantile(double alpha);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one phase measured and checked.
struct PhaseResult {
  std::map<std::string, Metric> metrics;
  std::vector<double> setup_s;  // one entry per setup repetition
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t checks = 0;
  int64_t failed_checks = 0;
  std::vector<std::string> check_failures;  // the first few, for the log

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records one output check; a false condition marks the run incorrect.
  // Cheap when `ok` (no allocation), so hot loops may check every reply.
  void Check(bool ok, const char* what) {
    ++checks;
    if (!ok) Fail(what);
  }
  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what);
};

// CPUs the process may run on, ascending.
std::vector<int> AllowedCpus();

// Pins the calling thread to `cpu` while in scope and then restores its
// previous affinity; a no-op for cpu < 0. A single-threaded phase pinned
// this way runs measurably steadier on a small VM than one the scheduler
// migrates between CPUs.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int cpu);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  bool pinned_ = false;
  std::vector<int> saved_;
};

// Pins the calling thread to `cpu` for good (thread entry points).
void PinThisThread(int cpu);

// The CPU of `cpus` that runs a short fixed compute probe fastest right
// now (-1 for an empty list). On a shared VM a vCPU whose host core is busy
// runs a single thread up to a third slower, and which one it is changes
// by the minute.
int FastestCpu(const std::vector<int>& cpus);

// Prints one human-readable report line (never the last stdout line: the
// driver prints the JSON result after every phase has reported).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace zsbench

#endif  // ZS_PERFBENCH_DRIVER_STATS_H_
