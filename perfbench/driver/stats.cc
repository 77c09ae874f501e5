#include "driver/stats.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace zsbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = static_cast<int64_t>(values.size());
  summary.median = Median(values);
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(values.size()) * (1.0 - q) >= 10.0) {
      summary.tail_q = q;
      summary.tail = Quantile(values, q);
      break;
    }
  }
  return summary;
}

std::string FormatSummary(const Summary& summary, double scale,
                          const char* unit) {
  char buffer[160];
  if (summary.tail_q > 0.0) {
    std::snprintf(buffer, sizeof(buffer), "p50 %.4g %s, p%g %.4g %s, n=%lld",
                  summary.median * scale, unit, summary.tail_q * 100.0,
                  summary.tail * scale, unit,
                  static_cast<long long>(summary.count));
  } else {
    std::snprintf(buffer, sizeof(buffer), "p50 %.4g %s, n=%lld",
                  summary.median * scale, unit,
                  static_cast<long long>(summary.count));
  }
  return buffer;
}

double NormalUpperQuantile(double alpha) {
  // Bisection on the complementary error function: exact enough for the
  // tiny alphas the output checks use, and dependency-free.
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(mid / std::sqrt(2.0)) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double WilsonLower(double successes, double trials, double alpha) {
  if (trials <= 0.0) return 0.0;
  const double z = NormalUpperQuantile(alpha);
  const double p = successes / trials;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / trials;
  const double center = p + z2 / (2.0 * trials);
  const double spread =
      z * std::sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials));
  return std::max(0.0, (center - spread) / denom);
}

namespace {

bool SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

std::vector<int> CurrentAffinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::pthread_getaffinity_np(::pthread_self(), sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

std::vector<int> AllowedCpus() { return CurrentAffinity(); }

ScopedCpuPin::ScopedCpuPin(int cpu) {
  if (cpu < 0) return;
  saved_ = CurrentAffinity();
  pinned_ = !saved_.empty() && SetAffinity({cpu});
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) SetAffinity(saved_);
}

void PinThisThread(int cpu) {
  if (cpu >= 0) SetAffinity({cpu});
}

int FastestCpu(const std::vector<int>& cpus) {
  int best = -1;
  int64_t best_ns = 0;
  for (const int cpu : cpus) {
    const ScopedCpuPin pin(cpu);
    // A dependent multiply-add chain: ~100 us of pure core time.
    volatile double sink = 1.0;
    double x = sink;
    const int64_t start = NowNs();
    for (int i = 0; i < 40000; ++i) x = x * 1.0000001 + 1e-9;
    const int64_t elapsed = NowNs() - start;
    sink = x;
    if (best < 0 || elapsed < best_ns) {
      best = cpu;
      best_ns = elapsed;
    }
  }
  return best;
}

void PhaseResult::Fail(const std::string& what) {
  ++failed_checks;
  if (check_failures.size() < 20) {
    check_failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
}

}  // namespace zsbench
