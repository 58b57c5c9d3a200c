#include "serve/cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::serve {

namespace {

obs::Counter& global_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

}  // namespace

CacheConfig CacheConfig::with_env_overrides() const {
  CacheConfig out = *this;
  out.enabled = util::env_flag("A3CS_CACHE", out.enabled);
  out.shards = static_cast<int>(
      util::env_int("A3CS_CACHE_SHARDS", out.shards, 1, util::kIntMax));
  out.capacity = util::env_int("A3CS_CACHE_CAPACITY", out.capacity, 1,
                               util::kInt64Max);
  return out;
}

ShardedCache::ShardedCache(CacheConfig cfg) : cfg_(cfg) {
  const int n = std::max(1, cfg_.shards);
  capacity_per_shard_ =
      std::max<std::int64_t>(1, (std::max<std::int64_t>(1, cfg_.capacity) +
                                 n - 1) / n);
  capacity_total_ = capacity_per_shard_ * n;
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

CachedEvalPtr ShardedCache::peek(const CacheKey& key) {
  if (!cfg_.enabled) return nullptr;
  static obs::Counter& hits = global_counter("serve.cache.hits");
  static obs::Counter& misses = global_counter("serve.cache.misses");
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key.digest);
  if (it == shard.map.end()) {
    misses.inc();
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits.inc();
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void ShardedCache::replay(const std::vector<ReplayOp>& ops) {
  if (!cfg_.enabled || ops.empty()) return;
  static obs::Counter& inserts = global_counter("serve.cache.inserts");
  static obs::Counter& evictions = global_counter("serve.cache.evictions");
  // Counting-sort op indices by shard so each shard's ops replay in their
  // original relative order under a single lock acquisition.
  const std::size_t n_shards = shards_.size();
  std::vector<std::uint32_t> bucket_end(n_shards + 1, 0);
  std::vector<std::uint32_t> shard_of(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    shard_of[i] =
        static_cast<std::uint32_t>(ops[i].key.digest.hi % n_shards);
    ++bucket_end[shard_of[i] + 1];
  }
  for (std::size_t s = 1; s <= n_shards; ++s) {
    bucket_end[s] += bucket_end[s - 1];
  }
  std::vector<std::uint32_t> order(ops.size());
  {
    std::vector<std::uint32_t> cursor(bucket_end.begin(),
                                      bucket_end.end() - 1);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      order[cursor[shard_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  std::int64_t inserted = 0;
  std::int64_t evicted = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (bucket_end[s] == bucket_end[s + 1]) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (std::uint32_t oi = bucket_end[s]; oi < bucket_end[s + 1]; ++oi) {
      const ReplayOp& op = ops[order[oi]];
      const auto it = shard.map.find(op.key.digest);
      if (op.insert_value == nullptr || *op.insert_value == nullptr) {
        if (it != shard.map.end()) {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        }
        continue;
      }
      if (it != shard.map.end()) {
        it->second->value = *op.insert_value;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        continue;
      }
      shard.lru.push_front(Entry{op.key.digest, *op.insert_value});
      shard.map.emplace(op.key.digest, shard.lru.begin());
      ++inserted;
      while (static_cast<std::int64_t>(shard.lru.size()) >
             capacity_per_shard_) {
        shard.map.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (inserted > 0) {
    inserts.inc(inserted);
    inserts_.fetch_add(inserted, std::memory_order_relaxed);
  }
  if (evicted > 0) {
    evictions.inc(evicted);
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }
  size_.fetch_add(inserted - evicted, std::memory_order_relaxed);
}

void ShardedCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    size_.fetch_sub(static_cast<std::int64_t>(shard->lru.size()),
                    std::memory_order_relaxed);
    shard->lru.clear();
    shard->map.clear();
  }
}

std::int64_t ShardedCache::size() const {
  return size_.load(std::memory_order_relaxed);
}

ShardedCache::Stats ShardedCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.size = size();
  s.capacity = capacity_total_;
  s.shards = shards();
  return s;
}

void ShardedCache::publish_metrics() const {
  const Stats s = stats();
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("serve.cache.occupancy").set(static_cast<double>(s.size));
  reg.gauge("serve.cache.capacity").set(static_cast<double>(s.capacity));
  reg.gauge("serve.cache.shards").set(static_cast<double>(s.shards));
  reg.gauge("serve.cache.hit_rate").set(s.hit_rate());
}

}  // namespace a3cs::serve
