// validate_mc: the paper's §4 validation loop on the Table 1 Viking disk.
//
// Computes the analytic N_max (t = 1 s, delta = 0.01), then alternates two
// timed estimators on an explicit pool of width 1: nominal replicated Monte
// Carlo of p_late at N_max through EstimateLateProbabilityReplicated (the
// batched RoundSimulator kernel), and the importance-sampled deep-tail
// p_error at a larger N through EstimateErrorProbabilityIS (the tilted
// ImportanceSampler). Both are warmed up before timing; rates are rounds
// per CPU second of the main thread, of the fastest call (see Finish).
//
// Why width 1 and CPU time: on a small shared VM a wider pool's speed
// depends on where the scheduler puts its threads (two threads sharing one
// vCPU and two running side by side on two differ by a third per CPU
// second), and wall time on whatever else the host runs; over ten seeds
// such rates spread by a third of their median. One pinned thread timed by
// its own CPU clock measures the code instead. The wide pool (half the
// host's CPUs) still runs the bit-identity check and, in the traced pass,
// the pool metrics.
//
// Output checks: N_max == 26 (the paper's number); the replicated estimate
// is bit-identical at pool width 1 and at the wide pool's width; the analytic
// bound is >= the one-sided lower confidence bound of both the nominal and
// the importance-sampled estimates, each sized so a correct simulator
// fails with probability <= 1e-6 per run.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/glitch_model.h"
#include "core/service_time_model.h"
#include "disk/presets.h"
#include "driver/phases.h"
#include "sim/importance_sampling.h"
#include "sim/replication.h"
#include "sim/round_simulator.h"
#include "workload/size_distribution.h"

namespace zsbench {
namespace {

constexpr double kMeanBytes = 200e3;
constexpr double kVarBytes2 = 100e3 * 100e3;
constexpr double kRoundLengthS = 1.0;
constexpr double kDelta = 0.01;
constexpr int kPaperNmax = 26;
// Wide pool (untimed): half the host's CPUs, at least 2 so the bit-identity
// check compares two widths, at most 4 (the run's thread budget).
constexpr int kMinPoolWidth = 2;
constexpr int kMaxPoolWidth = 4;
// Nominal call: replications x rounds per replication (~12 ms). Calls are
// short so that the fastest one needs only a short quiet moment.
constexpr int kMcReplications = 4;
constexpr int kMcRounds = 4000;
// Importance-sampled deep tail: N streams, lifetime m rounds, g glitches
// (~12 ms a call).
constexpr int kIsStreams = 30;
constexpr int kLifetimeRounds = 1200;
constexpr int kToleratedGlitches = 12;
constexpr int kIsReplications = 2;
constexpr int kIsRounds = 4000;
// Per-run false-failure budget of the statistical checks: half for the
// pooled nominal test, half split over at most kMaxIsChecks IS tests
// (each a one-sided bound from a two-sided interval).
constexpr double kFalseFailure = 1e-6;
constexpr int kMaxIsChecks = 1000;
// Single-thread kernel timing (traced pass): batches of rounds.
constexpr int kKernelBatch = 2000;
constexpr int kIsKernelBatch = 500;

bool SameEstimate(const sim::ProbabilityEstimate& a,
                  const sim::ProbabilityEstimate& b) {
  return std::memcmp(&a.point, &b.point, sizeof(double)) == 0 &&
         std::memcmp(&a.ci_lower, &b.ci_lower, sizeof(double)) == 0 &&
         std::memcmp(&a.ci_upper, &b.ci_upper, sizeof(double)) == 0 &&
         a.trials == b.trials;
}

struct McSetup {
  std::optional<core::ServiceTimeModel> model;
  int n_max = 0;
  double max_streams_s = 0.0;
  std::shared_ptr<const workload::SizeDistribution> sizes;
};

common::Status BuildSetup(McSetup* setup) {
  {
    ScopedSpan span(SpanId::kCoreModel);
    auto model = core::ServiceTimeModel::ForMultiZoneDisk(
        disk::QuantumViking2100(), disk::QuantumViking2100Seek(), kMeanBytes,
        kVarBytes2);
    if (!model.ok()) return model.status();
    setup->model.emplace(*std::move(model));
  }
  {
    ScopedSpan span(SpanId::kCoreMaxStreams);
    const int64_t start = NowNs();
    setup->n_max =
        core::MaxStreamsByLateProbability(*setup->model, kRoundLengthS, kDelta);
    setup->max_streams_s = static_cast<double>(NowNs() - start) * 1e-9;
  }
  auto sizes = workload::GammaSizeDistribution::Create(kMeanBytes, kVarBytes2);
  if (!sizes.ok()) return sizes.status();
  setup->sizes =
      std::make_shared<workload::GammaSizeDistribution>(*std::move(sizes));
  return common::Status::Ok();
}

class ValidateMcPhase final : public Phase {
 public:
  explicit ValidateMcPhase(const PhaseOptions& options)
      : options_(options),
        viking_(disk::QuantumViking2100()),
        seek_(disk::QuantumViking2100Seek()),
        cpus_(AllowedCpus()),
        width_(std::clamp(
            static_cast<int>(std::thread::hardware_concurrency()) / 2,
            kMinPoolWidth, kMaxPoolWidth)),
        seed_base_(options.seed * 1'000'003u) {
    config_.round_length_s = kRoundLengthS;
    is_options_.confidence = 1.0 - kFalseFailure / kMaxIsChecks;
  }

  void Setup() override;
  void RunSlice() override;
  void Finish() override;

 private:
  common::StatusOr<sim::ProbabilityEstimate> RunMc(uint64_t base_seed,
                                                   common::ThreadPool* pool);
  common::StatusOr<sim::ErrorProbabilityISEstimate> RunIs(
      uint64_t base_seed, common::ThreadPool* pool);
  void PoolTiming();
  void KernelTiming();

  PhaseOptions options_;
  disk::DiskGeometry viking_;
  disk::SeekTimeModel seek_;
  std::vector<int> cpus_;
  common::ThreadPool serial_{1};  // the timed width: no worker threads
  int width_;  // the wide pool of the bit-identity check and pool timing
  uint64_t seed_base_;
  sim::SimulatorConfig config_;
  sim::ImportanceSamplingOptions is_options_;
  std::unique_ptr<McSetup> setup_;
  std::vector<double> max_streams_s_;
  int64_t slices_ = 0;
  uint64_t first_recorded_seed_ = 0;

  std::vector<double> mc_rate_;
  std::vector<double> is_rate_;
  std::vector<double> mc_wall_rate_;
  std::vector<double> is_wall_rate_;
  std::vector<double> ess_frac_;
  std::vector<double> busy_frac_;
  std::vector<double> imbalance_;
  std::vector<sim::ProbabilityEstimate> nominal_;
  double late_successes_ = 0.0;
  double late_trials_ = 0.0;
  int64_t is_checks_ = 0;
  bool is_bound_ok_ = true;
};

void ValidateMcPhase::Setup() {
  setup_.reset();
  ScopedSpan span(SpanId::kSetup);
  const int64_t start = NowNs();
  auto next = std::make_unique<McSetup>();
  const common::Status status = BuildSetup(next.get());
  setup_ = std::move(next);
  if (!status.ok()) {
    result_.Check(false, "validate_mc setup: " + status.ToString());
    healthy_ = false;
    return;
  }
  max_streams_s_.push_back(setup_->max_streams_s);
  result_.Check(setup_->n_max == kPaperNmax,
                "N_max(Viking, t=1s, delta=0.01) == 26");
  if (setup_->n_max > 0) {
    // Warm-up: first-touch page faults and cold caches (the first of
    // several back-to-back estimates is measurably slower).
    const auto mc = RunMc(seed_base_ + 999'999, &serial_);
    const auto is = RunIs(seed_base_ + 999'998, &serial_);
    result_.Check(mc.ok() && is.ok(), "warm-up estimates succeed");
  }
  result_.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
}

common::StatusOr<sim::ProbabilityEstimate> ValidateMcPhase::RunMc(
    uint64_t base_seed, common::ThreadPool* pool) {
  ScopedSpan span(SpanId::kSimReplicated,
                  static_cast<uint64_t>(kMcReplications) * kMcRounds);
  sim::ReplicationOptions replication;
  replication.replications = kMcReplications;
  replication.base_seed = base_seed;
  replication.pool = pool;
  return sim::EstimateLateProbabilityReplicated(
      viking_, seek_, setup_->n_max,
      sim::RoundSimulator::IidFactory(setup_->sizes), config_, kMcRounds,
      replication);
}

common::StatusOr<sim::ErrorProbabilityISEstimate> ValidateMcPhase::RunIs(
    uint64_t base_seed, common::ThreadPool* pool) {
  ScopedSpan span(SpanId::kSimIs,
                  static_cast<uint64_t>(kIsReplications) * kIsRounds);
  sim::ReplicationOptions replication;
  replication.replications = kIsReplications;
  replication.base_seed = base_seed;
  replication.pool = pool;
  return sim::EstimateErrorProbabilityIS(
      viking_, seek_, kIsStreams, setup_->sizes, config_, kLifetimeRounds,
      kToleratedGlitches, kIsRounds, replication, is_options_);
}

// One nominal and one importance-sampled estimate on the width-1 pool, on
// the main thread pinned for the slice to the CPU that is fastest at its
// start.
void ValidateMcPhase::RunSlice() {
  if (!healthy_ || setup_->n_max <= 0) return;
  const int64_t slice = slices_++;
  const ScopedCpuPin pin(FastestCpu(cpus_));
  const uint64_t seed = seed_base_ + static_cast<uint64_t>(slice);
  int64_t start = NowNs();
  int64_t cpu_start = ThreadCpuNs();
  const auto estimate = RunMc(seed, &serial_);
  const double mc_cpu_s =
      static_cast<double>(ThreadCpuNs() - cpu_start) * 1e-9;
  const double mc_s = static_cast<double>(NowNs() - start) * 1e-9;
  ++result_.attempted;
  if (!estimate.ok()) {
    ++result_.failed;
    result_.Check(false,
                  "replicated estimate: " + estimate.status().ToString());
    healthy_ = false;
    return;
  }
  if (nominal_.empty()) first_recorded_seed_ = seed;
  const auto trials = static_cast<double>(estimate->trials);
  mc_rate_.push_back(trials / mc_cpu_s);
  mc_wall_rate_.push_back(trials / mc_s);
  nominal_.push_back(*estimate);
  late_successes_ += std::round(estimate->point * trials);
  late_trials_ += trials;

  start = NowNs();
  cpu_start = ThreadCpuNs();
  const auto tail = RunIs(seed + 500'000, &serial_);
  const double is_cpu_s =
      static_cast<double>(ThreadCpuNs() - cpu_start) * 1e-9;
  const double is_s = static_cast<double>(NowNs() - start) * 1e-9;
  ++result_.attempted;
  if (!tail.ok()) {
    ++result_.failed;
    result_.Check(false, "IS estimate: " + tail.status().ToString());
    healthy_ = false;
    return;
  }
  is_rate_.push_back(static_cast<double>(tail->glitch.rounds) / is_cpu_s);
  is_wall_rate_.push_back(static_cast<double>(tail->glitch.rounds) / is_s);
  ess_frac_.push_back(tail->glitch.ess /
                      static_cast<double>(tail->glitch.rounds));
  if (is_checks_ < kMaxIsChecks) {
    ++is_checks_;
    const core::GlitchModel glitch(&*setup_->model);
    is_bound_ok_ = is_bound_ok_ &&
                   glitch.ErrorBound(kIsStreams, kRoundLengthS,
                                     kLifetimeRounds, kToleratedGlitches) >=
                       tail->ci_lower;
  }
}

// Pool timing (traced pass): nominal estimates on the wide pool, with
// per-block times for the busy fraction and the block imbalance.
void ValidateMcPhase::PoolTiming() {
  std::optional<common::ThreadPool> pool;
  {
    ScopedSpan span(SpanId::kCommonPool);
    pool.emplace(width_);
  }
  std::mutex blocks_mutex;
  std::vector<double> blocks;
  pool->SetBlockObserver([&](double seconds) {
    std::lock_guard<std::mutex> lock(blocks_mutex);
    blocks.push_back(seconds);
  });
  const double pool_budget_s = options_.budget_s * 0.05;
  for (int64_t start = NowNs(), call = 0;
       call == 0 ||
       static_cast<double>(NowNs() - start) * 1e-9 < pool_budget_s;
       ++call) {
    {
      std::lock_guard<std::mutex> lock(blocks_mutex);
      blocks.clear();
    }
    const int64_t call_start = NowNs();
    const auto estimate =
        RunMc(seed_base_ + 700'000 + static_cast<uint64_t>(call), &*pool);
    const double call_s = static_cast<double>(NowNs() - call_start) * 1e-9;
    if (!estimate.ok()) break;
    std::lock_guard<std::mutex> lock(blocks_mutex);
    double sum = 0.0;
    double max = 0.0;
    for (const double b : blocks) {
      sum += b;
      max = std::max(max, b);
    }
    if (!blocks.empty() && sum > 0.0) {
      busy_frac_.push_back(sum / (call_s * width_));
      imbalance_.push_back(max / (sum / static_cast<double>(blocks.size())));
    }
  }
  pool->SetBlockObserver(nullptr);
}

// Single-thread kernel timing (traced pass): batches of
// RoundSimulator::RunRound at N_max and ImportanceSampler::RunRound at
// the deep-tail N, on a pinned main thread.
void ValidateMcPhase::KernelTiming() {
  const ScopedCpuPin pin(FastestCpu(cpus_));
  const double kernel_budget_s = options_.budget_s * 0.05;
  std::optional<sim::RoundSimulator> simulator;
  {
    ScopedSpan span(SpanId::kSimCreate);
    sim::SimulatorConfig kernel_config = config_;
    kernel_config.seed = options_.seed;
    auto created = sim::RoundSimulator::Create(
        viking_, seek_, setup_->n_max,
        sim::RoundSimulator::IidFactory(setup_->sizes), kernel_config);
    if (created.ok()) simulator.emplace(*std::move(created));
  }
  std::vector<double> round_s;
  for (int64_t start = NowNs();
       simulator.has_value() &&
       static_cast<double>(NowNs() - start) * 1e-9 < kernel_budget_s;) {
    ScopedSpan span(SpanId::kSimRounds, kKernelBatch);
    const int64_t batch_start = NowNs();
    for (int i = 0; i < kKernelBatch; ++i) (void)simulator->RunRound();
    round_s.push_back(static_cast<double>(NowNs() - batch_start) * 1e-9 /
                      kKernelBatch);
  }
  std::optional<sim::ImportanceSampler> sampler;
  {
    ScopedSpan span(SpanId::kSimCreate);
    sim::SimulatorConfig kernel_config = config_;
    kernel_config.seed = options_.seed;
    sim::ImportanceSamplingOptions sampler_options;
    auto theta = sim::AutoTiltParameter(viking_, seek_, kIsStreams,
                                        *setup_->sizes, kRoundLengthS);
    sampler_options.theta = theta.ok() ? *theta : 0.0;
    auto created = sim::ImportanceSampler::Create(
        viking_, seek_, kIsStreams, setup_->sizes, kernel_config,
        sampler_options);
    if (created.ok()) sampler.emplace(*std::move(created));
  }
  std::vector<double> is_round_s;
  for (int64_t start = NowNs();
       sampler.has_value() &&
       static_cast<double>(NowNs() - start) * 1e-9 < kernel_budget_s;) {
    ScopedSpan span(SpanId::kSimIsRounds, kIsKernelBatch);
    const int64_t batch_start = NowNs();
    for (int i = 0; i < kIsKernelBatch; ++i) (void)sampler->RunRound();
    is_round_s.push_back(static_cast<double>(NowNs() - batch_start) * 1e-9 /
                         kIsKernelBatch);
  }
  result_.Set("sim.round_ns", Median(round_s) * 1e9, "ns");
  result_.Set("sim.is_round_ns", Median(is_round_s) * 1e9, "ns");
}

void ValidateMcPhase::Finish() {
  if (setup_ == nullptr || setup_->n_max <= 0) return;
  // A run too short for a recorded slice still measures one.
  while (healthy_ && slices_ < 1) RunSlice();
  if (options_.tracer != nullptr) PoolTiming();
  ScopedSpan checks_span(SpanId::kChecks);
  if (!nominal_.empty()) {
    // The timed width 1 vs the wide pool, same seed: bit-identical.
    common::ThreadPool wide(width_);
    const auto at_width = RunMc(first_recorded_seed_, &wide);
    result_.Check(at_width.ok() && SameEstimate(*at_width, nominal_.front()),
                  "replicated estimate bit-identical at width 1 and width " +
                      std::to_string(width_));
  }
  const double late_bound = [&] {
    ScopedSpan span(SpanId::kCoreBound);
    return setup_->model->LateBound(setup_->n_max, kRoundLengthS).bound;
  }();
  const double late_lower =
      WilsonLower(late_successes_, late_trials_, kFalseFailure / 2);
  result_.Check(late_bound >= late_lower,
                "analytic b_late >= Wilson lower bound of the nominal "
                "estimate");
  result_.Check(is_bound_ok_,
                "analytic p_error bound >= lower bound of the IS estimate");
  Note("validate_mc: N_max=%d; p_late %.4g (Wilson lower %.3g) <= bound "
       "%.4g over %.0f rounds",
       setup_->n_max, late_trials_ > 0 ? late_successes_ / late_trials_ : 0.0,
       late_lower, late_bound, late_trials_);
  Note("validate_mc: per CPU second: nominal %s rounds/s, IS %s rounds/s",
       FormatSummary(Summarize(mc_rate_), 1.0, "").c_str(),
       FormatSummary(Summarize(is_rate_), 1.0, "").c_str());
  Note("validate_mc: per wall second: nominal %s rounds/s, IS %s rounds/s",
       FormatSummary(Summarize(mc_wall_rate_), 1.0, "").c_str(),
       FormatSummary(Summarize(is_wall_rate_), 1.0, "").c_str());
  // The fastest call's rate. Neighbours on a shared host slow stretches of
  // calls by up to 40% even on the thread's own CPU clock (not steal or
  // descheduling: contention for the core and its caches). The median
  // follows how long those stretches last; the fastest call only needs one
  // quiet moment, and the code cannot run faster than the host allows.
  const double mc_rate = Quantile(mc_rate_, 1.0);
  const double is_rate = Quantile(is_rate_, 1.0);
  Note("validate_mc: reported (fastest call, per CPU second): nominal %.6g "
       "rounds/s, IS %.6g rounds/s",
       mc_rate, is_rate);

  result_.Set("mc_rounds_per_s", mc_rate, "rounds/s");
  result_.Set("is_rounds_per_s", is_rate, "rounds/s");
  result_.Set("core.max_streams_us", Median(max_streams_s_) * 1e6, "us");
  result_.Set("sim.is_ess_frac", Median(ess_frac_), "ratio");
  if (options_.tracer != nullptr) {
    result_.Set("common.pool_busy_frac", Median(busy_frac_), "ratio");
    result_.Set("common.pool_block_imbalance", Median(imbalance_), "ratio");
    KernelTiming();
  }
}

}  // namespace

std::unique_ptr<Phase> MakeValidateMc(const PhaseOptions& options) {
  return std::make_unique<ValidateMcPhase>(options);
}

}  // namespace zsbench
