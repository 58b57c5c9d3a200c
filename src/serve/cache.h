// Memo-cache for predictor evaluations (docs/SERVING.md).
//
// One LRU list + hash index keyed by the 128-bit canonical digest
// (serve/key.h), under one mutex, holding at most `capacity` entries. Values
// are shared_ptr<const CachedEval>, so a hit costs one lock, one hash probe
// and a refcount bump — no HwEval deep copy — and an entry evicted mid-flight
// stays alive for the clients already holding it.
//
// Protocol: peek() then replay(). peek() reads without promoting; replay()
// applies the recency updates and inserts in order
// (PredictorService::evaluate_batch does exactly this, so the cache's content
// after a batch is a pure function of the batch sequence, independent of
// thread count). Every operation is safe from any thread. Correctness never
// depends on cache state: the predictor is pure, so a lost entry only costs a
// recompute of a bit-identical value.
//
// Env overrides (CacheConfig::with_env_overrides):
//   A3CS_CACHE=0|1            disable/enable caching (default on)
//   A3CS_CACHE_CAPACITY=N     entries kept (default 8192)
//
// Metrics: hits/misses/inserts/evictions tick the process-global
// serve.cache.* counters as they happen; publish_metrics() refreshes the
// serve.cache.{occupancy,capacity,hit_rate} gauges from this instance
// (docs/OBSERVABILITY.md).
#pragma once

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
  std::int64_t capacity = 8192;  // entries
  bool enabled = true;

  // Returns a copy with A3CS_CACHE / A3CS_CACHE_CAPACITY applied on top (env
  // wins). A malformed or out-of-range value (capacity below 1) throws
  // util::InputError (src/util/config.h).
  CacheConfig with_env_overrides() const;
};

// One memoized evaluation: the full HwEval plus the predictor's scalar cost.
struct CachedEval {
  accel::HwEval eval;
  double cost = 0.0;
};
using CachedEvalPtr = std::shared_ptr<const CachedEval>;

class MemoCache {
 public:
  explicit MemoCache(CacheConfig cfg = CacheConfig{});

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  // Hit: returns the entry without touching recency. Miss (or cache
  // disabled): returns nullptr. Counts a hit or miss; callers that act on a
  // hit replay its recency update through replay().
  CachedEvalPtr peek(const CacheKey& key);

  // One step of a batched recency replay: insert `*insert_value` as
  // most-recently-used (refreshing an existing entry, evicting from the LRU
  // tail while over capacity) when non-null; otherwise promote the key to
  // most-recently-used if present, counting no hit.
  struct ReplayOp {
    CacheKey key;
    const CachedEvalPtr* insert_value = nullptr;  // null => touch
  };

  // Applies ops in index order under one lock acquisition. No-op when
  // disabled.
  void replay(const std::vector<ReplayOp>& ops);

  void clear();

  bool enabled() const { return cfg_.enabled; }
  std::int64_t capacity() const { return capacity_; }

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t inserts = 0;
    std::int64_t evictions = 0;
    std::int64_t size = 0;
    std::int64_t capacity = 0;
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

  const CacheConfig cfg_;
  const std::int64_t capacity_;

  mutable std::mutex mu_;
  // front = most recently used
  std::list<Entry> lru_ A3CS_GUARDED_BY(mu_);
  std::unordered_map<Digest128, std::list<Entry>::iterator, DigestHash> map_
      A3CS_GUARDED_BY(mu_);
  std::int64_t hits_ A3CS_GUARDED_BY(mu_) = 0;
  std::int64_t misses_ A3CS_GUARDED_BY(mu_) = 0;
  std::int64_t inserts_ A3CS_GUARDED_BY(mu_) = 0;
  std::int64_t evictions_ A3CS_GUARDED_BY(mu_) = 0;
};

}  // namespace a3cs::serve
