// Sharded memo-cache for predictor evaluations (docs/SERVING.md).
//
// N mutex-striped shards, each an LRU list + hash index keyed by the 128-bit
// canonical digest (serve/key.h). Values are shared_ptr<const CachedEval>,
// so a hit costs one shard lock, one hash probe and a refcount bump — no
// HwEval deep copy — and an entry evicted mid-flight stays alive for the
// clients already holding it.
//
// Protocol: peek() then replay(). peek() reads without promoting, so batched
// callers fan lookups across the pool and then replay the recency updates and
// inserts serially (PredictorService::evaluate_batch does exactly this; the
// cache's content after a batch is then a pure function of the batch
// sequence, independent of thread count). Every shard operation is safe from
// any thread. Correctness never depends on cache state: the predictor is
// pure, so a lost entry only costs a recompute of a bit-identical value.
//
// Env overrides (CacheConfig::with_env_overrides):
//   A3CS_CACHE=0|1            disable/enable caching (default on)
//   A3CS_CACHE_SHARDS=N       mutex stripes (default 8)
//   A3CS_CACHE_CAPACITY=N     total entries across shards (default 8192)
//
// Metrics: hits/misses/inserts/evictions tick the process-global
// serve.cache.* counters as they happen; publish_metrics() refreshes the
// serve.cache.{occupancy,capacity,shards,hit_rate} gauges from this
// instance (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "accel/predictor.h"
#include "serve/key.h"
#include "util/thread_annotations.h"

namespace a3cs::serve {

struct CacheConfig {
  int shards = 8;
  std::int64_t capacity = 8192;  // total entries, split evenly across shards
  bool enabled = true;

  // Returns a copy with A3CS_CACHE / A3CS_CACHE_SHARDS / A3CS_CACHE_CAPACITY
  // applied on top (env wins). A malformed or out-of-range value (shards or
  // capacity below 1) throws util::InputError (src/util/config.h).
  CacheConfig with_env_overrides() const;
};

// One memoized evaluation: the full HwEval plus the predictor's scalar cost.
struct CachedEval {
  accel::HwEval eval;
  double cost = 0.0;
};
using CachedEvalPtr = std::shared_ptr<const CachedEval>;

class ShardedCache {
 public:
  explicit ShardedCache(CacheConfig cfg = CacheConfig{});

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  // Hit: returns the entry without touching recency. Miss (or cache
  // disabled): returns nullptr. Counts a hit or miss; callers that act on a
  // hit replay its recency update through replay().
  CachedEvalPtr peek(const CacheKey& key);

  // One step of a batched recency replay: insert `*insert_value` as
  // most-recently-used (refreshing an existing entry, evicting from the
  // shard's LRU tail while over per-shard capacity) when non-null; otherwise
  // promote the key to most-recently-used if present, counting no hit.
  struct ReplayOp {
    CacheKey key;
    const CachedEvalPtr* insert_value = nullptr;  // null => touch
  };

  // Applies ops in index order *within each shard*, taking every shard lock
  // once instead of once per op (per-op lock round trips dominated the
  // warm-batch profile). Shards are mutually independent LRU domains, so the
  // resulting cache state is byte-identical to applying the ops one at a time
  // in index order. No-op when disabled.
  void replay(const std::vector<ReplayOp>& ops);

  void clear();

  bool enabled() const { return cfg_.enabled; }
  int shards() const { return static_cast<int>(shards_.size()); }
  std::int64_t capacity() const { return capacity_total_; }
  std::int64_t size() const;

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t inserts = 0;
    std::int64_t evictions = 0;
    std::int64_t size = 0;
    std::int64_t capacity = 0;
    int shards = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  Stats stats() const;

  // Refreshes the serve.cache.* gauges from this instance's stats.
  void publish_metrics() const;

 private:
  struct Entry {
    Digest128 key;
    CachedEvalPtr value;
  };
  struct DigestHash {
    std::size_t operator()(const Digest128& d) const noexcept {
      return static_cast<std::size_t>(d.lo);
    }
  };
  struct Shard {
    std::mutex mu;
    // front = most recently used
    std::list<Entry> lru A3CS_GUARDED_BY(mu);
    std::unordered_map<Digest128, std::list<Entry>::iterator, DigestHash> map
        A3CS_GUARDED_BY(mu);
  };

  Shard& shard_for(const CacheKey& key) {
    // hi selects the stripe, lo feeds the in-shard hash — decorrelated, so
    // one hot bucket never serializes every stripe.
    return *shards_[static_cast<std::size_t>(key.digest.hi %
                                             shards_.size())];
  }

  CacheConfig cfg_;
  std::int64_t capacity_total_ = 0;
  std::int64_t capacity_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> inserts_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> size_{0};
};

}  // namespace a3cs::serve
