// ShardedLruCache against a brute-force reference model: every shard is a
// plain map, and the eviction victim is found by scanning it for the
// smallest stamp (ties to the smaller key).  Random get/put sequences in
// immediate mode (non-monotone stamps, ties included) and in deferred
// windows closed by flush() must give the same hit/miss on every get, the
// same contents after every step (hence the same victims), and the same
// stats().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rcr/rt/alloc_probe.hpp"
#include "rcr/serve/cache.hpp"
#include "rcr/testkit/gtest.hpp"
#include "rcr/testkit/testkit.hpp"

namespace tk = rcr::testkit;
using rcr::serve::CacheStats;
using rcr::serve::ShardedLruCache;

namespace {

class ModelCache {
 public:
  ModelCache(std::size_t capacity, std::size_t shards) {
    std::size_t n = 1;
    while (n < shards) n <<= 1;
    shards_.resize(n);
    cap_ = std::max<std::size_t>(1, capacity / n);
  }

  bool get(std::uint64_t key, std::uint64_t stamp, int& out) {
    Shard& s = shard_for(key);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++stats_.misses;
      return false;
    }
    if (deferred_)
      pending_.push_back({stamp, key, false, 0});
    else
      it->second.first = stamp;
    out = it->second.second;
    ++stats_.hits;
    return true;
  }

  void put(std::uint64_t key, std::uint64_t stamp, int value) {
    if (deferred_)
      pending_.push_back({stamp, key, true, value});
    else
      apply_put(key, stamp, value);
  }

  void begin_deferred() { deferred_ = true; }

  void flush() {
    if (!deferred_) return;
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Op& a, const Op& b) {
                       return std::make_pair(a.stamp, a.key) <
                              std::make_pair(b.stamp, b.key);
                     });
    for (const Op& op : pending_) {
      if (op.insert) {
        apply_put(op.key, op.stamp, op.value);
      } else {
        Shard& s = shard_for(op.key);
        auto it = s.map.find(op.key);
        if (it != s.map.end()) it->second.first = op.stamp;
      }
    }
    pending_.clear();
    deferred_ = false;
  }

  /// Stamp and value of `key`, or false when absent.
  bool find(std::uint64_t key, std::uint64_t& stamp, int& value) const {
    const Shard& s = shard_for(key);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    stamp = it->second.first;
    value = it->second.second;
    return true;
  }

  CacheStats stats() const {
    CacheStats out = stats_;
    for (const Shard& s : shards_) out.size += s.map.size();
    return out;
  }

 private:
  struct Op {
    std::uint64_t stamp;
    std::uint64_t key;
    bool insert;
    int value;
  };
  struct Shard {
    std::map<std::uint64_t, std::pair<std::uint64_t, int>> map;
  };

  void apply_put(std::uint64_t key, std::uint64_t stamp, int value) {
    Shard& s = shard_for(key);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      it->second = {stamp, value};
      return;
    }
    if (s.map.size() >= cap_) {
      auto victim = s.map.begin();
      for (auto cur = s.map.begin(); cur != s.map.end(); ++cur)
        if (cur->second.first < victim->second.first ||
            (cur->second.first == victim->second.first &&
             cur->first < victim->first))
          victim = cur;
      s.map.erase(victim);
      ++stats_.evictions;
    }
    s.map.emplace(key, std::make_pair(stamp, value));
    ++stats_.insertions;
  }

  // The cache's documented shard rule: Fibonacci-mixed key, masked.
  std::size_t index(std::uint64_t key) const {
    return ((key * 0x9E3779B97F4A7C15ull) >> 32) & (shards_.size() - 1);
  }
  Shard& shard_for(std::uint64_t key) { return shards_[index(key)]; }
  const Shard& shard_for(std::uint64_t key) const {
    return shards_[index(key)];
  }

  std::vector<Shard> shards_;
  std::size_t cap_ = 1;
  bool deferred_ = false;
  std::vector<Op> pending_;
  CacheStats stats_;
};

struct CacheOp {
  enum Kind { kGet, kPut, kBeginDeferred, kFlush } kind = kGet;
  std::uint64_t key = 0;
  std::uint64_t stamp = 0;
  int value = 0;
};

struct CacheCase {
  std::size_t capacity = 1;
  std::size_t shards = 1;
  std::vector<CacheOp> ops;
};

constexpr std::uint64_t kKeys = 12;

// Keys from a small universe so entries collide, get evicted and come back;
// stamps drawn from a small range so they repeat and go backwards.  Inside a
// deferred window two buffered puts never share (stamp, key): the flush order
// of such a pair is unspecified (a served tick never issues one).
tk::Gen<CacheCase> gen_cache_case() {
  tk::Gen<CacheCase> g;
  g.sample = [](rcr::num::Rng& rng) {
    CacheCase c;
    c.capacity = static_cast<std::size_t>(rng.uniform_int(1, 8));
    c.shards = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 120));
    bool deferred = false;
    std::set<std::pair<std::uint64_t, std::uint64_t>> window_puts;
    for (std::size_t i = 0; i < len; ++i) {
      CacheOp op;
      const double r = rng.uniform();
      if (r < 0.06) {
        op.kind = deferred ? CacheOp::kFlush : CacheOp::kBeginDeferred;
        deferred = !deferred;
        window_puts.clear();
        c.ops.push_back(op);
        continue;
      }
      op.kind = r < 0.5 ? CacheOp::kGet : CacheOp::kPut;
      op.key = static_cast<std::uint64_t>(rng.uniform_int(1, kKeys));
      op.stamp = static_cast<std::uint64_t>(rng.uniform_int(0, 40));
      op.value = rng.uniform_int(-1000, 1000);
      if (op.kind == CacheOp::kPut && deferred &&
          !window_puts.insert({op.stamp, op.key}).second)
        continue;
      c.ops.push_back(op);
    }
    if (deferred) c.ops.push_back(CacheOp{CacheOp::kFlush, 0, 0, 0});
    return c;
  };
  g.shrink = [](const CacheCase& c) {
    // Drop single get/put ops (window brackets stay balanced).
    std::vector<CacheCase> out;
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
      if (c.ops[i].kind == CacheOp::kBeginDeferred ||
          c.ops[i].kind == CacheOp::kFlush)
        continue;
      CacheCase d = c;
      d.ops.erase(d.ops.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(d));
    }
    return out;
  };
  g.show = [](const CacheCase& c) {
    std::string s = "capacity " + std::to_string(c.capacity) + ", shards " +
                    std::to_string(c.shards) + ":";
    for (const CacheOp& op : c.ops) {
      switch (op.kind) {
        case CacheOp::kGet:
          s += " get(" + std::to_string(op.key) + "@" +
               std::to_string(op.stamp) + ")";
          break;
        case CacheOp::kPut:
          s += " put(" + std::to_string(op.key) + "@" +
               std::to_string(op.stamp) + "=" + std::to_string(op.value) + ")";
          break;
        case CacheOp::kBeginDeferred:
          s += " begin";
          break;
        case CacheOp::kFlush:
          s += " flush";
          break;
      }
    }
    return s;
  };
  return g;
}

std::string same_stats(const CacheStats& a, const CacheStats& b) {
  if (a.hits != b.hits || a.misses != b.misses ||
      a.evictions != b.evictions || a.insertions != b.insertions ||
      a.size != b.size)
    return "stats differ: cache h/m/e/i/size " + std::to_string(a.hits) +
           "/" + std::to_string(a.misses) + "/" + std::to_string(a.evictions) +
           "/" + std::to_string(a.insertions) + "/" + std::to_string(a.size) +
           " vs model " + std::to_string(b.hits) + "/" +
           std::to_string(b.misses) + "/" + std::to_string(b.evictions) + "/" +
           std::to_string(b.insertions) + "/" + std::to_string(b.size);
  return "";
}

/// Compare the committed contents key by key.  A present key is probed at
/// its own stamp (the refresh leaves it where it is), an absent one at stamp
/// 0 (a miss); both sides see the same probes.
std::string same_contents(ShardedLruCache<int>& cache, ModelCache& model) {
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    std::uint64_t stamp = 0;
    int want = 0;
    const bool present = model.find(key, stamp, want);
    int got = 0;
    int ignored = 0;
    const bool hit = cache.get(key, stamp, got);
    model.get(key, stamp, ignored);
    if (hit != present)
      return "key " + std::to_string(key) +
             (present ? " evicted early" : " should have been evicted");
    if (hit && got != want)
      return "key " + std::to_string(key) + " holds " + std::to_string(got) +
             ", model " + std::to_string(want);
  }
  return "";
}

TEST(CacheProperties, MatchesTheBruteForceVictimScan) {
  RCR_EXPECT_PROP(tk::check<CacheCase>(
      "ShardedLruCache == reference model", gen_cache_case(),
      [](const CacheCase& c) {
        ShardedLruCache<int> cache(c.capacity, c.shards);
        ModelCache model(c.capacity, c.shards);
        bool deferred = false;
        for (std::size_t i = 0; i < c.ops.size(); ++i) {
          const CacheOp& op = c.ops[i];
          const std::string at = " after op " + std::to_string(i);
          switch (op.kind) {
            case CacheOp::kGet: {
              int got = 0;
              int want = 0;
              const bool hit = cache.get(op.key, op.stamp, got);
              if (hit != model.get(op.key, op.stamp, want))
                return "hit/miss differs" + at;
              if (hit && got != want) return "value differs" + at;
              break;
            }
            case CacheOp::kPut:
              cache.put(op.key, op.stamp, op.value);
              model.put(op.key, op.stamp, op.value);
              break;
            case CacheOp::kBeginDeferred:
              cache.begin_deferred();
              model.begin_deferred();
              deferred = true;
              break;
            case CacheOp::kFlush:
              cache.flush();
              model.flush();
              deferred = false;
              break;
          }
          if (!deferred) {
            const std::string d = same_contents(cache, model);
            if (!d.empty()) return d + at;
          }
          const std::string s = same_stats(cache.stats(), model.stats());
          if (!s.empty()) return s + at;
        }
        return std::string();
      },
      [] {
        tk::CheckOptions o;
        o.cases = 400;
        return o;
      }()));
}

TEST(CacheProperties, EvictingPutAllocatesNothingOnceWarm) {
  // A full shard's insert reuses the victim's map and index nodes, and
  // buffered deferred ops reuse the pending storage.
  ShardedLruCache<int> cache(8, 2);
  std::uint64_t stamp = 0;
  for (std::uint64_t key = 0; key < 64; ++key) cache.put(key, stamp++, 1);
  const auto window = [&](std::uint64_t first) {
    cache.begin_deferred();
    int out = 0;
    for (std::uint64_t key = first; key < first + 16; ++key) {
      cache.get(key - 8, stamp++, out);
      cache.put(key, stamp++, 2);
    }
    cache.flush();
  };
  window(1000);  // warm the pending buffers
  const rcr::rt::AllocDelta delta;
  for (std::uint64_t key = 64; key < 512; ++key) cache.put(key, stamp++, 3);
  window(2000);
  EXPECT_EQ(delta.delta(), 0u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 8u);
  EXPECT_GT(s.evictions, 400u);
}

}  // namespace
