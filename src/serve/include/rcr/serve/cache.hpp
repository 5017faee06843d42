// Sharded solution cache with deterministic LRU eviction.
//
// The allocation service looks up the previous tick's answer by quantized
// problem signature before solving.  The cache is sharded by key hash so
// cells solved on different pool threads contend on different mutexes, and
// recency is tracked by a *caller-supplied stamp* (the service passes
// tick * num_cells + cell) rather than wall-clock order: which entry gets
// evicted then depends only on the workload, never on thread scheduling, so
// a soak run produces bit-identical cache behavior for every RCR_THREADS
// setting (ties broken by smaller key).
//
// Deterministic stamps alone are not enough under eviction pressure: with
// in-place mutation, whether a concurrent get()'s stamp refresh lands
// before or after a concurrent put()'s eviction scan decides the victim,
// and a put can become visible to a racing get mid-phase -- both
// schedule-dependent.  The *deferred two-phase mode* closes this:
// begin_deferred() freezes the committed map (gets read it without
// mutating, buffering their stamp refreshes; puts buffer inserts), and a
// serial flush() applies the buffered ops sorted by stamp -- exactly the
// order a serial run would have issued them.  The service brackets each
// tick's parallel fan-out with begin_deferred()/flush(), making eviction
// order and hit/miss outcomes bit-identical for every RCR_THREADS setting.
//
// Each shard keeps its entries in a hash map plus a binary min-heap of
// pointers to them ordered by (stamp, key), so the eviction victim is the
// heap's root: O(log n) instead of a scan of the shard.  A full shard's
// evicting insert re-keys the victim's map node (C++17 extract/insert) and
// a stamp refresh only sifts, so the steady state allocates nothing inside
// the cache.  The heap is one contiguous array, so the index costs no
// allocation per entry.
//
// Counters (armed registry only): rcr.serve.cache.hits / .misses /
// .evictions / .insertions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rcr/obs/obs.hpp"

namespace rcr::serve {

/// Aggregated cache statistics (sum over shards).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::size_t size = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Fixed-capacity key/value cache, sharded, LRU by deterministic stamp.
template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` entries total, spread over `shards` shards (each shard holds
  /// capacity / shards, minimum 1).  `shards` is rounded up to a power of
  /// two so the shard index is a mask of the mixed key.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 16) {
    std::size_t n = 1;
    while (n < shards) n <<= 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      shards_.push_back(std::make_unique<Shard>());
    per_shard_capacity_ = capacity / n;
    if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  }

  /// Look up `key`; on a hit copies the value into `out` and returns true.
  /// Immediate mode refreshes the entry's stamp to `stamp` in place; in the
  /// deferred window the committed map is read-only and the refresh is
  /// buffered until flush().
  bool get(std::uint64_t key, std::uint64_t stamp, V& out) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.misses;
      obs::counter_add("rcr.serve.cache.misses");
      return false;
    }
    if (deferred_)
      shard.pending.push_back(PendingOp{stamp, key, std::nullopt});
    else
      restamp(shard, *it, stamp);
    out = it->second.value;
    ++shard.hits;
    obs::counter_add("rcr.serve.cache.hits");
    return true;
  }

  /// Insert or overwrite `key`.  When the shard is full the entry with the
  /// smallest stamp (oldest deterministic recency; ties to smaller key) is
  /// evicted first.  In the deferred window the insert is buffered and
  /// applied -- in stamp order -- at flush().
  void put(std::uint64_t key, std::uint64_t stamp, V value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (deferred_) {
      shard.pending.push_back(PendingOp{stamp, key, std::move(value)});
      return;
    }
    apply_put(shard, key, stamp, std::move(value));
  }

  /// Enter the deferred window: gets read the committed map without
  /// mutating it, and every stamp refresh / insert is buffered.  Call from
  /// the driver thread before fanning readers/writers across the pool.
  void begin_deferred() { deferred_ = true; }

  /// Leave the deferred window: per shard, apply the buffered ops sorted by
  /// (stamp, key) -- the order a serial run would have issued them, so the
  /// resulting map, stamps, and eviction victims are independent of which
  /// thread buffered which op.  Call from the driver thread after the
  /// parallel phase joined.  No-op when not in a deferred window.
  void flush() {
    if (!deferred_) return;
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      std::sort(shard.pending.begin(), shard.pending.end(),
                [](const PendingOp& a, const PendingOp& b) {
                  return a.stamp != b.stamp ? a.stamp < b.stamp
                                            : a.key < b.key;
                });
      for (PendingOp& op : shard.pending) {
        if (op.value) {
          apply_put(shard, op.key, op.stamp, std::move(*op.value));
        } else {
          auto it = shard.map.find(op.key);
          if (it != shard.map.end()) restamp(shard, *it, op.stamp);
        }
      }
      shard.pending.clear();
    }
    deferred_ = false;
  }

  /// Drop every entry and any buffered deferred ops (statistics are
  /// retained).
  void clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->map.clear();
      shard->heap.clear();
      shard->pending.clear();
    }
  }

  CacheStats stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.evictions += shard->evictions;
      total.insertions += shard->insertions;
      total.size += shard->map.size();
    }
    return total;
  }

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t capacity() const { return per_shard_capacity_ * shards_.size(); }

 private:
  struct Entry {
    std::uint64_t stamp = 0;
    V value{};
    std::size_t heap_pos = 0;  ///< This entry's index in Shard::heap.
  };
  using Map = std::unordered_map<std::uint64_t, Entry>;
  /// A map element; its address is stable across rehashes and across the
  /// extract/insert that re-keys it.
  using Node = typename Map::value_type;
  struct PendingOp {
    std::uint64_t stamp = 0;
    std::uint64_t key = 0;
    /// The buffered insert's value; empty for a deferred get's stamp
    /// refresh, which therefore constructs no V.
    std::optional<V> value;
  };
  struct Shard {
    mutable std::mutex mu;
    Map map;
    /// Min-heap of every map element by (stamp, key); heap[0] is the
    /// eviction victim.
    std::vector<Node*> heap;
    std::vector<PendingOp> pending;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
  };

  /// The victim order: smaller stamp first, ties to the smaller key.
  static bool older(const Node* a, const Node* b) {
    return a->second.stamp != b->second.stamp
               ? a->second.stamp < b->second.stamp
               : a->first < b->first;
  }

  static void place(std::vector<Node*>& heap, std::size_t i, Node* node) {
    heap[i] = node;
    node->second.heap_pos = i;
  }

  static void sift_up(std::vector<Node*>& heap, std::size_t i) {
    Node* node = heap[i];
    while (i > 0 && older(node, heap[(i - 1) / 2])) {
      place(heap, i, heap[(i - 1) / 2]);
      i = (i - 1) / 2;
    }
    place(heap, i, node);
  }

  static void sift_down(std::vector<Node*>& heap, std::size_t i) {
    Node* node = heap[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= heap.size()) break;
      if (child + 1 < heap.size() && older(heap[child + 1], heap[child]))
        ++child;
      if (!older(heap[child], node)) break;
      place(heap, i, heap[child]);
      i = child;
    }
    place(heap, i, node);
  }

  /// Move an entry to a new stamp in the heap; the shard mutex must be held.
  static void restamp(Shard& shard, Node& node, std::uint64_t stamp) {
    const std::uint64_t old = node.second.stamp;
    node.second.stamp = stamp;
    if (stamp < old)
      sift_up(shard.heap, node.second.heap_pos);
    else if (stamp > old)
      sift_down(shard.heap, node.second.heap_pos);
  }

  /// Insert/overwrite with LRU eviction; the shard mutex must be held.
  void apply_put(Shard& shard, std::uint64_t key, std::uint64_t stamp,
                 V value) {
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      restamp(shard, *it, stamp);
      it->second.value = std::move(value);
      return;
    }
    if (shard.map.size() >= per_shard_capacity_) {
      // The victim (smallest stamp, ties to smaller key) is the heap's
      // root; its map node is re-keyed for the new entry and stays at the
      // root (the pointer taken before extract() stays valid) until the
      // sift restores the heap.
      auto node = shard.map.extract(shard.heap[0]->first);
      node.key() = key;
      node.mapped().stamp = stamp;
      node.mapped().value = std::move(value);
      shard.map.insert(std::move(node));
      sift_down(shard.heap, 0);
      ++shard.evictions;
      obs::counter_add("rcr.serve.cache.evictions");
    } else {
      auto inserted = shard.map.emplace(key, Entry{stamp, std::move(value)});
      shard.heap.push_back(&*inserted.first);
      sift_up(shard.heap, shard.heap.size() - 1);
    }
    ++shard.insertions;
    obs::counter_add("rcr.serve.cache.insertions");
  }

  Shard& shard_for(std::uint64_t key) {
    // Fibonacci mix so adjacent signatures spread across shards.
    const std::uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
    return *shards_[(mixed >> 32) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 1;
  /// Toggled only by the driver thread while no pool worker is inside the
  /// cache (parallel_for dispatch/join provides the happens-before edge).
  bool deferred_ = false;
};

}  // namespace rcr::serve
