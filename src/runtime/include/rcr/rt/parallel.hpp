// Deterministic data-parallel loops for the RCR hot paths.
//
// Both entry points split [begin, end) into fixed chunks of `grain` indices.
// Chunk boundaries depend only on (begin, end, grain) -- never on the thread
// count -- so parallel_reduce combines per-chunk partials in ascending chunk
// order and yields bit-identical results whether the pool has 1, 2, or 64
// threads.  parallel_for makes the same guarantee provided the body writes
// disjoint state per index (the contract for every kernel in this repo).
//
// Serial fallback: when the range fits in one chunk, the pool has no
// workers, a ForceSerialGuard is active on this thread, or the caller is
// itself a pool worker (nested parallelism), chunks run inline in ascending
// order -- same decomposition, same arithmetic, same bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "rcr/rt/thread_pool.hpp"

namespace rcr::rt {

namespace detail {

/// Dispatch chunks [begin + c*grain, ...) of [begin, end) across the global
/// pool and the calling thread; rethrows the first body exception.
void run_chunked(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

/// True when the calling thread must run the range inline.
bool must_run_serial(std::size_t n, std::size_t grain);

}  // namespace detail

/// Scoped override forcing parallel_for/parallel_reduce on *this thread* to
/// run inline (serial reference path for benchmarks and equivalence tests).
/// Nestable.
class ForceSerialGuard {
 public:
  ForceSerialGuard();
  ~ForceSerialGuard();
  ForceSerialGuard(const ForceSerialGuard&) = delete;
  ForceSerialGuard& operator=(const ForceSerialGuard&) = delete;
};

/// True while a ForceSerialGuard is active on the calling thread.
bool force_serial_active();

/// Scoped test override, the mirror of ForceSerialGuard: callers that derive
/// their grain from measured costs (the serve tick, DESIGN.md §13) use
/// grain 1 on *this thread* while it is active, so small fixtures still
/// dispatch to the pool and the parallel leg of an equivalence test really
/// races.  Nestable.
class ForceFanOutGuard {
 public:
  ForceFanOutGuard();
  ~ForceFanOutGuard();
  ForceFanOutGuard(const ForceFanOutGuard&) = delete;
  ForceFanOutGuard& operator=(const ForceFanOutGuard&) = delete;
};

/// True while a ForceFanOutGuard is active on the calling thread.
bool force_fan_out_active();

/// Apply `body(chunk_begin, chunk_end)` over [begin, end) in chunks of
/// `grain` indices.  The body must write disjoint state per index.  Chunks
/// may run on any thread in any order; exceptions thrown by the body are
/// rethrown (first one wins) after all chunks finish or are abandoned.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  if (end <= begin) return;
  const std::size_t g = std::max<std::size_t>(1, grain);
  if (detail::must_run_serial(end - begin, g)) {
    for (std::size_t s = begin; s < end; s += g)
      body(s, std::min(s + g, end));
    return;
  }
  detail::run_chunked(begin, end, g, body);
}

/// Chunked reduction: `acc = combine(acc, chunk(chunk_begin, chunk_end))`
/// over fixed chunks in ascending order.  Because the chunk decomposition
/// ignores the thread count, the result is bit-identical for every pool
/// size, including the forced-serial path.
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T init, ChunkFn&& chunk, Combine&& combine) {
  if (end <= begin) return init;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (end - begin + g - 1) / g;
  std::vector<T> partial(chunks);
  parallel_for(0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t s = begin + c * g;
      partial[c] = chunk(s, std::min(s + g, end));
    }
  });
  T acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c)
    acc = combine(std::move(acc), std::move(partial[c]));
  return acc;
}

}  // namespace rcr::rt
