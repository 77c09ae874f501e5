// Deterministic parallel-for execution for the evaluation pipeline.
//
// The analytic model sweeps (admission tables over tolerance grids, array
// plans over disk groups) and the Monte Carlo validation batches are all
// embarrassingly parallel, but every result in this repo must be exactly
// reproducible. ThreadPool is therefore deliberately work-stealing-free:
// ParallelFor splits [0, count) into contiguous blocks whose boundaries
// are a pure function of (count, num_threads()) — never of timing — and
// callers keep all mutable state per-index. Any computation whose
// iterations are independent is then bit-identical at every thread count,
// including fully serial execution.
#ifndef ZONESTREAM_COMMON_THREAD_POOL_H_
#define ZONESTREAM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace zonestream::common {

// Cumulative execution statistics of a ThreadPool (see Stats()). A
// "block" is one contiguous chunk of a ParallelFor partition — the unit a
// thread executes; serial/nested loops count as a single block.
struct ThreadPoolStats {
  int64_t parallel_loops = 0;    // ParallelFor calls that ran iterations
  int64_t blocks_executed = 0;   // blocks run (workers + calling thread)
  int64_t current_queue_depth = 0;  // blocks queued but not yet started
  int64_t max_queue_depth = 0;      // peak of current_queue_depth
  double total_block_time_s = 0.0;  // summed block wall time
  double max_block_time_s = 0.0;    // longest single block
};

// Fixed-size pool of worker threads. Thread-safe; one pool may serve
// concurrent ParallelFor calls (each call blocks until its own iterations
// finish). Nested ParallelFor calls from inside a parallel region execute
// serially inline, so composite pipelines (e.g. an array plan whose
// per-group work builds admission tables) cannot deadlock or oversubscribe.
class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (the calling thread participates in
  // every ParallelFor). num_threads <= 0 selects DefaultThreads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads that cooperate on a ParallelFor (workers + caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs body(i) for every i in [0, count) and returns when all
  // iterations have finished. Iterations are statically partitioned into
  // num_threads() contiguous blocks; `body` must be safe to call
  // concurrently for distinct i. The first exception thrown by `body` (if
  // any) is rethrown on the calling thread after the loop drains.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& body);

  // Block-granular variant: body(begin, end) receives each contiguous
  // block of the same static partition ParallelFor uses, so callers can
  // hoist per-thread state (a reusable simulator, a scratch arena) out
  // of the per-index loop. Iteration results must still depend only on
  // the index, never on the block boundaries, to keep every thread count
  // bit-identical.
  void ParallelForBlocks(int64_t count,
                         const std::function<void(int64_t, int64_t)>& body);

  // std::thread::hardware_concurrency(), clamped to >= 1 and overridable
  // with the ZONESTREAM_THREADS environment variable.
  static int DefaultThreads();

  // Lazily constructed process-wide pool with DefaultThreads() threads.
  static ThreadPool& Global();

  // Snapshot of the cumulative execution statistics. Thread-safe; may be
  // called while ParallelFor loops are in flight.
  ThreadPoolStats Stats() const;

  // Installs a hook invoked (outside all pool locks) with each block's
  // wall time in seconds, e.g. to feed a latency histogram or to measure
  // block imbalance. Pass nullptr to detach. The observer must be
  // thread-safe; it runs on worker threads and on ParallelFor callers.
  using BlockObserver = std::function<void(double block_seconds)>;
  void SetBlockObserver(BlockObserver observer);

 private:
  void WorkerLoop();
  // Times body(begin, end), updates stats, notifies the observer.
  void RunStatBlock(const std::function<void(int64_t, int64_t)>& body,
                    int64_t begin, int64_t end);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Statistics and observer, guarded separately so Stats() and the
  // per-block bookkeeping never contend with the work queue.
  mutable std::mutex stats_mutex_;
  ThreadPoolStats stats_;
  std::shared_ptr<const BlockObserver> observer_;
};

// Convenience wrapper: runs body over [0, count) on `pool`, or on
// ThreadPool::Global() when pool is null.
void ParallelFor(int64_t count, const std::function<void(int64_t)>& body,
                 ThreadPool* pool = nullptr);

// Block-granular convenience wrapper (see ThreadPool::ParallelForBlocks).
void ParallelForBlocks(int64_t count,
                       const std::function<void(int64_t, int64_t)>& body,
                       ThreadPool* pool = nullptr);

}  // namespace zonestream::common

#endif  // ZONESTREAM_COMMON_THREAD_POOL_H_
