#include "rcr/rt/thread_pool.hpp"

#include "rcr/obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace rcr::rt {

namespace {
thread_local bool tl_on_worker = false;

// The dispatch estimate is a running median: each sample moves it this
// fraction of itself towards the sample.  A mean would follow the few
// dispatches whose helper or caller lost its core for milliseconds, and an
// estimate pushed that high holds every caller inline, with no dispatch
// left to bring it back.
constexpr double kDispatchStep = 1.0 / 16.0;

// Round trips the seed takes the fastest of.
constexpr int kSeedTrips = 3;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

double ThreadPool::dispatch_us() {
  if (workers_.empty()) return 0.0;
  // Seeded on first use rather than at construction: a constructor that
  // waited for its fresh worker would charge thread start-up to every pool
  // built.  A worker never seeds: waiting on its own pool could deadlock.
  if (!on_worker_thread() &&
      !std::isfinite(dispatch_us_.load(std::memory_order_relaxed)))
    seed_dispatch_estimate();
  return dispatch_us_.load(std::memory_order_relaxed);
}

void ThreadPool::seed_dispatch_estimate() {
  // The fastest of a few round trips through a worker: the first often
  // finds the worker in a deep sleep, or not yet started, and one such
  // sample would hold every caller inline with no dispatch left to correct
  // it.  Each trip enqueues a task that signals back, pushed directly rather
  // than through submit() so seeding adds nothing to rcr.runtime.tasks.  The
  // latch is shared-owned because the worker may still be inside notify
  // when the trip ends.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  };
  double fastest = std::numeric_limits<double>::infinity();
  for (int trip = 0; trip < kSeedTrips; ++trip) {
    auto latch = std::make_shared<Latch>();
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back([latch] {
        std::lock_guard<std::mutex> done_lock(latch->mutex);
        latch->done = true;
        latch->cv.notify_one();
      });
    }
    cv_.notify_one();
    {
      std::unique_lock<std::mutex> lock(latch->mutex);
      latch->cv.wait(lock, [&] { return latch->done; });
    }
    fastest = std::min(fastest, std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
  }
  dispatch_us_.store(fastest, std::memory_order_relaxed);
}

void ThreadPool::record_dispatch(double us, bool lower_bound) {
  // Concurrent dispatchers may lose an update to each other; the estimate
  // is advisory (it sizes grains, never results), so that is acceptable.
  const double prev = dispatch_us_.load(std::memory_order_relaxed);
  if (!std::isfinite(prev)) {
    // Unseeded: a full sample seeds it, a lower bound is left to the seed.
    if (lower_bound) return;
    dispatch_us_.store(us, std::memory_order_relaxed);
  } else {
    // A lower bound at or under the estimate agrees with it.
    if (lower_bound) us = std::max(us, prev);
    if (us != prev)
      dispatch_us_.store(prev * (us > prev ? 1.0 + kDispatchStep
                                           : 1.0 - kDispatchStep),
                         std::memory_order_relaxed);
  }
  obs::histogram_observe("rcr.runtime.dispatch_us", us);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || workers_.empty())
      throw std::runtime_error("ThreadPool::submit: pool unavailable");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  // Recorded outside the lock: the submitter, not the pool, pays for it.
  obs::counter_add("rcr.runtime.tasks");
  obs::histogram_observe("rcr.runtime.queue_depth",
                         static_cast<double>(depth));
}

bool ThreadPool::on_worker_thread() { return tl_on_worker; }

void ThreadPool::worker_loop() {
  tl_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("RCR_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 1024)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: intentional process lifetime

ThreadPool& locked_pool(std::size_t total) {
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(total > 0 ? total - 1 : 0);
  return *g_pool;
}
}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return locked_pool(default_thread_count());
}

void set_global_threads(std::size_t total) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool.reset();
  locked_pool(total == 0 ? 1 : total);
}

std::size_t global_threads() { return global_pool().size() + 1; }

}  // namespace rcr::rt
