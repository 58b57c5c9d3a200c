#include "serve/service.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "obs/metrics.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace a3cs::serve {

PredictorService::PredictorService(const accel::Predictor& predictor,
                                   CacheConfig cache_cfg)
    : predictor_(predictor), cache_(cache_cfg) {
  // Digest the predictor's parameters once: two services whose predictors
  // differ in budget, energy model or cost weights must never share entries,
  // even though they hash the same (network, config) pairs.
  Hash128 h;
  const accel::FpgaBudget& b = predictor.budget();
  h.i32(b.dsp).i32(b.bram18k).f64(b.clock_mhz).f64(b.dram_bytes_per_cycle);
  const accel::EnergyModel& e = predictor.energy_model();
  h.f64(e.mac_nj).f64(e.sram_per_byte_nj).f64(e.dram_per_byte_nj);
  const accel::CostWeights& w = predictor.cost_weights();
  h.f64(w.latency).f64(w.energy).f64(w.barrier);
  salt_ = h.digest().lo ^ h.digest().hi;
}

PreparedNet PredictorService::prepare(
    const std::vector<nn::LayerSpec>& specs) const {
  PreparedNet out;
  out.net = accel::prepare_network(specs);
  out.signature = network_signature(specs);
  return out;
}

CachedEvalPtr PredictorService::compute(
    const PreparedNet& net, const accel::AcceleratorConfig& config) const {
  auto value = std::make_shared<CachedEval>();
  value->eval = predictor_.evaluate(net.net, config);
  value->cost = predictor_.scalar_cost(value->eval);
  return value;
}

std::vector<ServeResult> PredictorService::evaluate_batch(
    const PreparedNet& net,
    const std::vector<accel::AcceleratorConfig>& configs) {
  A3CS_PROF_SCOPE("serve-batch");
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t n = static_cast<std::int64_t>(configs.size());
  std::vector<ServeResult> results(configs.size());
  if (n == 0) return results;

  static obs::Counter& requests =
      obs::MetricsRegistry::global().counter("serve.requests");
  static obs::Counter& batches =
      obs::MetricsRegistry::global().counter("serve.batches");
  requests.inc(n);
  batches.inc();

  // Phase 1 (serial): one canonical digest per config. Keying costs ~100 ns
  // per config, far below the pool's wake/handoff cost at the batch sizes
  // clients send.
  std::vector<CacheKey> keys(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    keys[i] = cache_key(net.signature, configs[i], salt_);
  }

  // Phase 2 (serial): dedup in-flight keys. Batch items with equal digests
  // collapse onto one slot, first occurrence wins, so a batch of duplicates
  // costs one evaluation no matter the cache state. Open-addressed probe on
  // a half-loaded power-of-two table — a node-based map's per-key allocation
  // and pointer chase cost more than a warm hit does.
  std::size_t table_size = 16;
  while (table_size < configs.size() * 2) table_size *= 2;
  const std::size_t mask = table_size - 1;
  std::vector<std::uint32_t> table(table_size, 0);  // unique index + 1; 0=free
  std::vector<std::size_t> unique_of(configs.size());  // batch slot -> unique
  std::vector<std::size_t> rep;                        // unique -> first slot
  rep.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Digest128 d = keys[i].digest;
    std::size_t slot = static_cast<std::size_t>(d.lo) & mask;
    for (;;) {
      const std::uint32_t tag = table[slot];
      if (tag == 0) {
        table[slot] = static_cast<std::uint32_t>(rep.size() + 1);
        unique_of[i] = rep.size();
        rep.push_back(i);
        break;
      }
      const std::size_t uidx = tag - 1;
      if (keys[rep[uidx]].digest == d) {
        unique_of[i] = uidx;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  const std::int64_t u = static_cast<std::int64_t>(rep.size());

  // Phase 3 (serial): peek every unique key. peek() never touches recency;
  // the recency replay in phase 5 is what the cache content depends on.
  std::vector<CachedEvalPtr> values(rep.size());
  for (std::size_t i = 0; i < rep.size(); ++i) {
    values[i] = cache_.peek(keys[rep[i]]);
  }

  // Phase 4 (parallel, disjoint writes): evaluate the misses. The predictor
  // is a pure function, so each value is bit-exact with a serial loop.
  std::vector<std::size_t> miss;  // unique indices, first-occurrence order
  miss.reserve(rep.size());
  for (std::size_t i = 0; i < rep.size(); ++i) {
    if (values[i] == nullptr) miss.push_back(i);
  }
  const std::int64_t m = static_cast<std::int64_t>(miss.size());
  if (m > 0) {
    // Documented estimate, not a measured count (the same model as the DAS
    // sweep's das-eval counter): the analytic predictor does a few dozen
    // scalar ops per layer, so one evaluation is roughly layers * 64 flops.
    static const obs::perf::WorkCounters work =
        obs::perf::WorkCounters::named("serve-eval");
    work.add(64 * m * net.signature.num_layers, 0, 0);
    util::parallel_for(
        0, m, 1,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            const std::size_t uidx = miss[static_cast<std::size_t>(i)];
            values[uidx] = compute(net, configs[rep[uidx]]);
          }
        },
        "serve-eval");
  }

  // Phase 5 (serial, first-occurrence order): replay recency updates and
  // inserts, then fan every unique value out to its batch slots. Because
  // this replay is serial and ordered, the cache's content after the batch
  // is a pure function of the batch sequence — identical at any thread
  // count.
  std::vector<char> computed(rep.size(), 0);
  for (std::size_t uidx : miss) computed[uidx] = 1;
  std::vector<MemoCache::ReplayOp> ops(rep.size());
  for (std::size_t i = 0; i < rep.size(); ++i) {
    ops[i].key = keys[rep[i]];
    ops[i].insert_value = computed[i] != 0 ? &values[i] : nullptr;
  }
  cache_.replay(ops);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::size_t uidx = unique_of[i];
    results[i].value = values[uidx];
    // A slot is "cached" unless it is the representative of a fresh miss:
    // duplicates of a miss were deduped in-flight, which is a cache in
    // spirit — the caller did not pay for their evaluation.
    results[i].cached = !(computed[uidx] != 0 && rep[uidx] == i);
  }

  const double dur_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  obs::trace_event("serve_batch")
      .kv("batch", n)
      .kv("unique", u)
      .kv("hits", u - m)
      .kv("computed", m)
      .kv("dur_ms", dur_ms);
  cache_.publish_metrics();
  return results;
}

}  // namespace a3cs::serve
