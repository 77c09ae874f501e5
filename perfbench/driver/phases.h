// The three workload phases. Every run sets up all three and then
// interleaves their measured work in short slices for the whole run, so a
// change in the shared host's speed during the run reaches every metric
// alike instead of whichever phase happened to be running. The workload
// named on the command line is the primary phase: it is set up first (nine
// times; setup_s is the median) and gets half of the measured time. See
// perfbench/README.md.
#ifndef ZS_PERFBENCH_DRIVER_PHASES_H_
#define ZS_PERFBENCH_DRIVER_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "driver/stats.h"
#include "driver/trace.h"

namespace zonestream {}

namespace zsbench {

// The driver calls into every zonestream module by its namespace.
using namespace ::zonestream;

struct PhaseOptions {
  uint64_t seed = 1;
  double budget_s = 1.0;  // this phase's share of the measured time
  // Null in untraced passes. When set, the phase also runs its per-layer
  // extras (hook A/B, single-thread kernel timing) and reports the
  // per-layer metrics derived from spans.
  Tracer* tracer = nullptr;
  std::string work_dir;  // scratch directory for the daemon's socket
};

// A phase owns no threads between slices: the threads a slice needs
// (daemon, control, pool workers) start and stop inside it, so a run never
// holds more than four.
class Phase {
 public:
  virtual ~Phase() = default;

  // One setup repetition (replacing the previous one); its time lands in
  // result().setup_s. The last repetition's state is measured.
  virtual void Setup() = 0;
  // One slice of measured work (tens to hundreds of milliseconds).
  virtual void RunSlice() = 0;
  // Final output checks and metrics; no slices after it.
  virtual void Finish() = 0;

  // False once setup or a slice failed; the driver stops scheduling it.
  bool healthy() const { return healthy_; }
  PhaseResult& result() { return result_; }

 protected:
  bool healthy_ = true;
  PhaseResult result_;
};

// `service` layer: open-loop admission traffic over persistent unix-socket
// connections to an in-process AdmitDaemon.
std::unique_ptr<Phase> MakeAdmitWire(const PhaseOptions& options);

// `server` layer: a 4-disk RAID-5 MediaServer with churn, snapshots, a
// mid-run disk failure and a throttled rebuild.
std::unique_ptr<Phase> MakeServeArray(const PhaseOptions& options);

// `sim` layer: analytic N_max, nominal replicated Monte Carlo, and the
// importance-sampled deep tail on an explicit thread pool.
std::unique_ptr<Phase> MakeValidateMc(const PhaseOptions& options);

}  // namespace zsbench

#endif  // ZS_PERFBENCH_DRIVER_PHASES_H_
