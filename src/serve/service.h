// PredictorService: batched, cached, thread-fanned accelerator evaluation —
// the serving-scale front end to accel::Predictor (docs/SERVING.md).
//
// One service wraps one predictor plus a MemoCache. Clients prepare() a
// network once (hoisting the per-layer decomposition and the signature
// digest out of every subsequent call), then evaluate_batch() candidate
// configs by the thousands:
//
//   serve::PredictorService service(predictor);
//   const auto net = service.prepare(specs);
//   auto results = service.evaluate_batch(net, configs);
//
// evaluate_batch pipeline (see the determinism note):
//   1. serial    key digests per config
//   2. serial    in-flight dedup: batch items with equal keys collapse onto
//                one evaluation slot, first occurrence wins
//   3. serial    cache peek per unique key        (no recency update)
//   4. parallel  predictor evaluation of the misses over util::ThreadPool
//                with fixed sharding
//   5. serial    recency replay + inserts in first-occurrence order,
//                then fan-out to every batch slot
//
// Determinism: evaluation is a pure function, so results are bit-exact with
// a serial predictor.evaluate() loop at any thread count and any cache
// state. Recency/insert replay in step 5 additionally makes the cache's
// *content* after each batch a pure function of the batch sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/predictor.h"
#include "serve/cache.h"
#include "serve/key.h"

namespace a3cs::serve {

// One network, prepared once per (network, service) pair.
struct PreparedNet {
  accel::PreparedNetwork net;
  NetworkSignature signature;
};

// One evaluation outcome. `value` is shared with the cache (never null);
// `cached` is true when the result was served from the memo-cache or deduped
// onto another in-flight item of the same batch.
struct ServeResult {
  CachedEvalPtr value;
  bool cached = false;

  const accel::HwEval& eval() const { return value->eval; }
  double cost() const { return value->cost; }
};

class PredictorService {
 public:
  explicit PredictorService(
      const accel::Predictor& predictor,
      CacheConfig cache_cfg = CacheConfig{}.with_env_overrides());

  PredictorService(const PredictorService&) = delete;
  PredictorService& operator=(const PredictorService&) = delete;

  // Hoists the per-layer decomposition + signature digest; the predictor
  // parameter salt is folded in so keys never alias across services whose
  // predictors differ in budget/energy/cost weights.
  PreparedNet prepare(const std::vector<nn::LayerSpec>& specs) const;

  std::vector<ServeResult> evaluate_batch(
      const PreparedNet& net,
      const std::vector<accel::AcceleratorConfig>& configs);

  const accel::Predictor& predictor() const { return predictor_; }
  MemoCache& cache() { return cache_; }
  const MemoCache& cache() const { return cache_; }
  std::uint64_t predictor_salt() const { return salt_; }

 private:
  CachedEvalPtr compute(const PreparedNet& net,
                        const accel::AcceleratorConfig& config) const;

  const accel::Predictor& predictor_;
  std::uint64_t salt_ = 0;
  MemoCache cache_;
};

}  // namespace a3cs::serve
