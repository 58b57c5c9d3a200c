#include "serve/cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/config.h"

namespace a3cs::serve {

namespace {

obs::Counter& global_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

}  // namespace

CacheConfig CacheConfig::with_env_overrides() const {
  CacheConfig out = *this;
  out.enabled = util::env_flag("A3CS_CACHE", out.enabled);
  out.capacity = util::env_int("A3CS_CACHE_CAPACITY", out.capacity, 1,
                               util::kInt64Max);
  return out;
}

MemoCache::MemoCache(CacheConfig cfg)
    : cfg_(cfg), capacity_(std::max<std::int64_t>(1, cfg.capacity)) {}

CachedEvalPtr MemoCache::peek(const CacheKey& key) {
  if (!cfg_.enabled) return nullptr;
  static obs::Counter& hits = global_counter("serve.cache.hits");
  static obs::Counter& misses = global_counter("serve.cache.misses");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key.digest);
  if (it == map_.end()) {
    misses.inc();
    ++misses_;
    return nullptr;
  }
  hits.inc();
  ++hits_;
  return it->second->value;
}

void MemoCache::replay(const std::vector<ReplayOp>& ops) {
  if (!cfg_.enabled || ops.empty()) return;
  static obs::Counter& inserts = global_counter("serve.cache.inserts");
  static obs::Counter& evictions = global_counter("serve.cache.evictions");
  std::int64_t inserted = 0;
  std::int64_t evicted = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const ReplayOp& op : ops) {
    const auto it = map_.find(op.key.digest);
    if (op.insert_value == nullptr || *op.insert_value == nullptr) {
      if (it != map_.end()) lru_.splice(lru_.begin(), lru_, it->second);
      continue;
    }
    if (it != map_.end()) {
      it->second->value = *op.insert_value;
      lru_.splice(lru_.begin(), lru_, it->second);
      continue;
    }
    lru_.push_front(Entry{op.key.digest, *op.insert_value});
    map_.emplace(op.key.digest, lru_.begin());
    ++inserted;
    if (static_cast<std::int64_t>(lru_.size()) > capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++evicted;
    }
  }
  inserts_ += inserted;
  evictions_ += evicted;
  inserts.inc(inserted);
  evictions.inc(evicted);
}

void MemoCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
}

MemoCache::Stats MemoCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.inserts = inserts_;
  s.evictions = evictions_;
  s.size = static_cast<std::int64_t>(lru_.size());
  s.capacity = capacity_;
  return s;
}

void MemoCache::publish_metrics() const {
  const Stats s = stats();
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("serve.cache.occupancy").set(static_cast<double>(s.size));
  reg.gauge("serve.cache.capacity").set(static_cast<double>(s.capacity));
  reg.gauge("serve.cache.hit_rate").set(s.hit_rate());
}

}  // namespace a3cs::serve
