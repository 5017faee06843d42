// Persistent worker-thread pool for the RCR parallel runtime.
//
// The pool owns N worker threads that drain a FIFO task queue.  It is the
// substrate under rcr::rt::parallel_for / parallel_reduce (parallel.hpp);
// user code rarely needs to touch it directly.  A process-wide pool is
// created lazily on first use, sized by the RCR_THREADS environment
// variable (total thread count including the caller) or, when unset, by
// std::thread::hardware_concurrency().
//
// The pool also keeps a running estimate of what one parallel_for dispatch
// costs beyond the work it runs (dispatch_us()), so callers that size their
// own grain can skip fan-outs that cannot pay for themselves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace rcr::rt {

/// Fixed-size pool of persistent worker threads draining a shared queue.
class ThreadPool {
 public:
  /// Spawn `workers` threads (0 is valid: the pool accepts tasks only via
  /// submit(), which then throws, so callers must treat a 0-worker pool as
  /// "run everything inline").
  explicit ThreadPool(std::size_t workers);

  /// Joins all workers; tasks still queued are executed before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task.  Tasks must not throw out of the std::function call --
  /// the parallel_for layer catches and forwards exceptions; raw submit()
  /// users must catch their own.  Throws std::runtime_error when the pool
  /// has no workers or is shutting down.
  void submit(std::function<void()> task);

  /// True when the calling thread is one of this process's pool workers
  /// (any pool).  Used to run nested parallel regions inline instead of
  /// deadlocking on a saturated queue.
  static bool on_worker_thread();

  /// Running median, in microseconds, of one dispatch round trip: the time
  /// from submit until a helper claims its first chunk, plus the caller's
  /// wake-up once a helper has finished the last chunk (DESIGN.md §6
  /// "Sizing").  0 for a pool with no workers.  The first call seeds the
  /// estimate with the fastest of a few round trips through a worker, unless
  /// a measured dispatch already has; on a worker thread an unseeded
  /// estimate reads as +infinity, since waiting on its own pool could
  /// deadlock.
  double dispatch_us();

  /// Fold one measured dispatch into the estimate (called by parallel_for)
  /// and export the sample as the rcr.runtime.dispatch_us histogram.  A
  /// `lower_bound` sample only says the dispatch cost at least `us` (no
  /// helper claimed a chunk before the caller finished them all): it is
  /// folded in as max(us, estimate), and dropped while unseeded.
  void record_dispatch(double us, bool lower_bound);

 private:
  void worker_loop();
  void seed_dispatch_estimate();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<double> dispatch_us_{
      std::numeric_limits<double>::infinity()};  ///< Until seeded.
};

/// Thread count requested by the environment: RCR_THREADS when set to a
/// positive integer, otherwise hardware_concurrency() (minimum 1).  This is
/// the *total* concurrency used by parallel_for (workers + calling thread).
std::size_t default_thread_count();

/// The process-wide pool backing parallel_for.  Holds
/// default_thread_count() - 1 workers on first use.
ThreadPool& global_pool();

/// Resize the global pool to `total` threads of concurrency (total - 1
/// workers).  The new pool starts its own dispatch estimate.  Intended for
/// tests and benchmarks; must not be called while parallel work is in
/// flight.
void set_global_threads(std::size_t total);

/// Total concurrency the global pool currently provides (workers + 1).
std::size_t global_threads();

}  // namespace rcr::rt
