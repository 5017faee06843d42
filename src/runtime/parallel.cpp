#include "rcr/rt/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

namespace rcr::rt {

namespace {
thread_local int tl_force_serial = 0;
thread_local int tl_force_fan_out = 0;
}  // namespace

ForceSerialGuard::ForceSerialGuard() { ++tl_force_serial; }
ForceSerialGuard::~ForceSerialGuard() { --tl_force_serial; }

bool force_serial_active() { return tl_force_serial > 0; }

ForceFanOutGuard::ForceFanOutGuard() { ++tl_force_fan_out; }
ForceFanOutGuard::~ForceFanOutGuard() { --tl_force_fan_out; }

bool force_fan_out_active() { return tl_force_fan_out > 0; }

namespace detail {

bool must_run_serial(std::size_t n, std::size_t grain) {
  return n <= grain || force_serial_active() ||
         ThreadPool::on_worker_thread() || global_pool().size() == 0;
}

namespace {

using Clock = std::chrono::steady_clock;

// Shared state for one parallel_for call: self-scheduling chunk counter,
// completion latch, first-exception slot, and the two timestamps the
// dispatch estimate is made of (nanoseconds after submit; -1 = not yet).
struct ForState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;
  std::condition_variable cv;

  Clock::time_point submitted;
  std::atomic<std::int64_t> first_claim_ns{-1};  ///< First helper claim.
  std::int64_t last_done_ns = -1;  ///< Last chunk, when a helper ran it.

  std::int64_t since_submit_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - submitted)
        .count();
  }

  void run_chunks(bool helper) {
    for (bool first = helper;; first = false) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if (first) {
        std::int64_t unset = -1;
        first_claim_ns.compare_exchange_strong(unset, since_submit_ns(),
                                               std::memory_order_relaxed);
      }
      if (!failed.load(std::memory_order_acquire)) {
        const std::size_t s = begin + c * grain;
        const std::size_t e = std::min(s + grain, end);
        try {
          (*body)(s, e);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (!error) error = std::current_exception();
          }
          failed.store(true, std::memory_order_release);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(mutex);
        if (helper) last_done_ns = since_submit_ns();
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void run_chunked(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->chunks = (end - begin + grain - 1) / grain;
  state->body = &body;

  ThreadPool& pool = global_pool();
  const std::size_t helpers = std::min(pool.size(), state->chunks - 1);
  state->submitted = Clock::now();
  for (std::size_t i = 0; i < helpers; ++i)
    pool.submit([state] { state->run_chunks(/*helper=*/true); });

  state->run_chunks(/*helper=*/false);
  const std::int64_t own_done_ns = state->since_submit_ns();

  std::int64_t last_done_ns = -1;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->chunks;
    });
    last_done_ns = state->last_done_ns;
  }

  // Dispatch cost = helper wake-up + caller wake-up.  The wake-up is the
  // time until a helper claimed its first chunk; when none did before the
  // caller ran out of chunks, the helpers were at least that late, so the
  // sample is only a lower bound.  The caller's wake-up counts from the
  // moment a helper finished the last chunk: the wait before that is load
  // imbalance, which is work, and counting it would make the estimate grow
  // with the grain it sizes.
  const std::int64_t claim_ns =
      state->first_claim_ns.load(std::memory_order_relaxed);
  const bool claimed = claim_ns >= 0;
  const std::int64_t wake_ns = claimed ? claim_ns : own_done_ns;
  const std::int64_t join_ns =
      last_done_ns >= 0 ? state->since_submit_ns() - last_done_ns : 0;
  pool.record_dispatch(1e-3 * static_cast<double>(wake_ns + join_ns),
                       /*lower_bound=*/!claimed);

  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace detail

}  // namespace rcr::rt
