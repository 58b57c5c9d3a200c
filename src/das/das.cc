#include "das/das.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "accel/config_io.h"
#include "obs/metrics.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "tensor/serialize.h"
#include "util/logging.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace a3cs::das {

namespace {

using DrawnSample = DasEngine::DrawnSample;
using EvaluatedSample = DasEngine::EvaluatedSample;

// The one candidate ordering of every DAS sweep: a feasible accelerator beats
// an infeasible one, then the lower scalar cost wins.
bool better(const HwEval& eval, double cost, const HwEval& than_eval,
            double than_cost) {
  if (eval.feasible != than_eval.feasible) return eval.feasible;
  return cost < than_cost;
}

// Decodes and scores every drawn sample against the hoisted decomposition
// `net`, one pool task per sample. Each task writes only its own slot and the
// predictor is pure, so the results are bit-exact with a serial loop at any
// thread count.
void evaluate_batch(const AcceleratorSpace& space, const Predictor& predictor,
                    const accel::PreparedNetwork& net,
                    const std::vector<DrawnSample>& drawn,
                    std::vector<EvaluatedSample>& out) {
  A3CS_PROF_SCOPE("das-eval");
  // Documented estimate, not a measured count: the analytic predictor does a
  // few dozen scalar ops per layer, so one evaluation is roughly layers * 64
  // flops.
  static const obs::perf::WorkCounters work =
      obs::perf::WorkCounters::named("das-eval");
  const std::int64_t n = static_cast<std::int64_t>(drawn.size());
  work.add(64 * n * static_cast<std::int64_t>(net.layers.size()), 0, 0);
  out.resize(drawn.size());
  util::parallel_for(
      0, n, 1,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          EvaluatedSample& ev = out[static_cast<std::size_t>(i)];
          space.decode(drawn[static_cast<std::size_t>(i)].choices, ev.config);
          ev.eval = predictor.evaluate(net, ev.config);
          ev.cost = predictor.scalar_cost(ev.eval);
        }
      },
      "das-eval");
}

}  // namespace

DasEngine::DasEngine(const AcceleratorSpace& space, const Predictor& predictor,
                     DasConfig cfg)
    : space_(space),
      predictor_(predictor),
      cfg_(cfg),
      opt_(cfg.lr),
      rng_(cfg.seed),
      tau_(cfg.tau_init) {
  for (const auto& knob : space.knobs()) {
    phis_.emplace_back(knob.name, knob.num_choices);
  }
}

double DasEngine::step(const std::vector<nn::LayerSpec>& specs, int n) {
  // Hoist the per-layer decomposition once per step() call; the
  // co-search loop mutates the network between calls, never within one.
  return step(accel::prepare_network(specs), n);
}

double DasEngine::step(const accel::PreparedNetwork& net, int n) {
  A3CS_PROF_SCOPE("das-step");
  static obs::Counter& steps =
      obs::MetricsRegistry::global().counter("das.steps");
  static obs::Counter& samples =
      obs::MetricsRegistry::global().counter("das.samples");
  steps.inc(n);
  samples.inc(static_cast<std::int64_t>(n) *
              std::max(1, cfg_.samples_per_iter));
  double last_cost = 0.0;
  std::vector<nn::Parameter*> params;
  params.reserve(phis_.size());
  for (auto& phi : phis_) params.push_back(&phi.param());

  std::vector<float> sens;
  for (int it = 0; it < n; ++it) {
    const int samples_per_iter = std::max(1, cfg_.samples_per_iter);
    // Phase 1 (serial): draw every sample of this iteration, consuming the
    // RNG in exactly the order the all-serial loop did.
    drawn_.resize(static_cast<std::size_t>(samples_per_iter));
    for (DrawnSample& d : drawn_) {
      // Exploration sample: uniform over the space, incumbent-only (it is
      // off-policy, so it must not feed the relaxed-gradient estimator).
      d.explore = rng_.uniform() < cfg_.explore_eps;
      if (d.explore) {
        space_.random_choices(rng_, d.choices);
      } else {
        // Hard-sample every knob to build one concrete accelerator.
        d.gumbel.resize(phis_.size());
        d.choices.resize(phis_.size());
        for (std::size_t m = 0; m < phis_.size(); ++m) {
          phis_[m].sample(rng_, tau_, d.gumbel[m]);
          d.choices[m] = d.gumbel[m].index;
        }
      }
    }

    // Phase 2 (parallel): evaluate the predictor on every drawn config.
    evaluate_batch(space_, predictor_, net, drawn_, evaluated_);

    // Phase 3 (serial, in draw order): incumbent, baseline and gradients.
    for (int s = 0; s < samples_per_iter; ++s) {
      const DrawnSample& d = drawn_[static_cast<std::size_t>(s)];
      const EvaluatedSample& ev = evaluated_[static_cast<std::size_t>(s)];
      if (!has_best_seen_ ||
          better(ev.eval, ev.cost, best_seen_eval_, best_seen_cost_)) {
        has_best_seen_ = true;
        best_seen_config_ = ev.config;
        best_seen_eval_ = ev.eval;
        best_seen_cost_ = ev.cost;
      }
      if (d.explore) continue;
      last_cost = ev.cost;

      double signal = std::log(ev.cost + 1e-9);
      if (!baseline_init_) {
        baseline_ = signal;
        baseline_init_ = true;
      } else {
        baseline_ = 0.95 * baseline_ + 0.05 * signal;
      }
      signal -= baseline_;
      signal /= samples_per_iter;

      // The hard one-hot made only the sampled choice contribute, so each
      // knob's sensitivity vector is zero except at the sampled index (the
      // relaxed softmax then spreads the gradient over all logits).
      for (std::size_t m = 0; m < phis_.size(); ++m) {
        sens.assign(static_cast<std::size_t>(phis_[m].num_choices()), 0.0f);
        sens[static_cast<std::size_t>(d.gumbel[m].index)] =
            static_cast<float>(signal);
        phis_[m].accumulate_grad(d.gumbel[m], sens, tau_);
      }
    }
    opt_.step(params);
    for (nn::Parameter* p : params) p->grad.zero();

    tau_ = std::max(cfg_.tau_min, tau_ * cfg_.tau_decay);
  }
  return last_cost;
}

namespace {

void put_hw_eval(std::ostream& out, const accel::HwEval& e) {
  namespace sio = util::sio;
  sio::put_bool(out, e.feasible);
  sio::put_f64(out, e.ii_cycles);
  sio::put_f64(out, e.latency_cycles);
  sio::put_f64(out, e.fps);
  sio::put_f64(out, e.energy_nj);
  sio::put_i32(out, e.dsp_used);
  sio::put_f64(out, e.bram_used);
  sio::put_f64(out, e.resource_overflow);
  sio::put_u32(out, static_cast<std::uint32_t>(e.layers.size()));
  for (const accel::LayerCost& lc : e.layers) {
    sio::put_f64(out, lc.compute_cycles);
    sio::put_f64(out, lc.memory_cycles);
    sio::put_f64(out, lc.cycles);
    sio::put_f64(out, lc.sram_bytes);
    sio::put_f64(out, lc.dram_bytes);
    sio::put_f64(out, lc.energy_nj);
    sio::put_i32(out, lc.chunk);
  }
  sio::put_f64_vec(out, e.chunk_cycles);
}

accel::HwEval get_hw_eval(std::istream& in) {
  namespace sio = util::sio;
  accel::HwEval e;
  e.feasible = sio::get_bool(in);
  e.ii_cycles = sio::get_f64(in);
  e.latency_cycles = sio::get_f64(in);
  e.fps = sio::get_f64(in);
  e.energy_nj = sio::get_f64(in);
  e.dsp_used = sio::get_i32(in);
  e.bram_used = sio::get_f64(in);
  e.resource_overflow = sio::get_f64(in);
  e.layers.resize(sio::get_u32(in));
  for (accel::LayerCost& lc : e.layers) {
    lc.compute_cycles = sio::get_f64(in);
    lc.memory_cycles = sio::get_f64(in);
    lc.cycles = sio::get_f64(in);
    lc.sram_bytes = sio::get_f64(in);
    lc.dram_bytes = sio::get_f64(in);
    lc.energy_nj = sio::get_f64(in);
    lc.chunk = sio::get_i32(in);
  }
  e.chunk_cycles = sio::get_f64_vec(in);
  return e;
}

}  // namespace

void DasEngine::save_state(std::ostream& out) const {
  namespace sio = util::sio;
  sio::put_u32(out, static_cast<std::uint32_t>(phis_.size()));
  std::vector<nn::Parameter*> params;
  for (const auto& phi : phis_) {
    params.push_back(const_cast<nn::Parameter*>(&phi.param()));
  }
  for (const nn::Parameter* p : params) {
    tensor::write_tensor(out, p->value);
  }
  opt_.save_state(out, params);
  sio::put_rng(out, rng_);
  sio::put_f64(out, tau_);
  sio::put_f64(out, baseline_);
  sio::put_bool(out, baseline_init_);
  sio::put_bool(out, has_best_seen_);
  if (has_best_seen_) {
    sio::put_string(out, accel::encode_config(best_seen_config_));
    put_hw_eval(out, best_seen_eval_);
    sio::put_f64(out, best_seen_cost_);
  }
}

void DasEngine::load_state(std::istream& in) {
  namespace sio = util::sio;
  const std::uint32_t n = sio::get_u32(in);
  A3CS_CHECK(n == phis_.size(), "DasEngine::load_state: knob count mismatch");
  std::vector<nn::Parameter*> params;
  for (auto& phi : phis_) params.push_back(&phi.param());
  for (nn::Parameter* p : params) {
    tensor::Tensor t = tensor::read_tensor(in);
    A3CS_CHECK(t.numel() == p->value.numel(),
               "DasEngine::load_state: phi logit shape mismatch");
    p->value = t;
  }
  opt_.load_state(in, params);
  sio::get_rng(in, rng_);
  tau_ = sio::get_f64(in);
  baseline_ = sio::get_f64(in);
  baseline_init_ = sio::get_bool(in);
  has_best_seen_ = sio::get_bool(in);
  if (has_best_seen_) {
    best_seen_config_ = accel::decode_config(sio::get_string(in));
    best_seen_eval_ = get_hw_eval(in);
    best_seen_cost_ = sio::get_f64(in);
  } else {
    best_seen_config_ = AcceleratorConfig{};
    best_seen_eval_ = HwEval{};
    best_seen_cost_ = 0.0;
  }
}

AcceleratorConfig DasEngine::derive() const {
  std::vector<int> choices;
  choices.reserve(phis_.size());
  for (const auto& phi : phis_) choices.push_back(phi.argmax());
  return space_.decode(choices);
}

HwEval DasEngine::derive_eval(const std::vector<nn::LayerSpec>& specs) const {
  return predictor_.evaluate(specs, derive());
}

DasResult DasEngine::search(const std::vector<nn::LayerSpec>& specs) {
  DasResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  bool have_best = false;
  result.cost_curve.reserve(static_cast<std::size_t>(cfg_.iterations));
  const accel::PreparedNetwork net = accel::prepare_network(specs);
  for (int it = 0; it < cfg_.iterations; ++it) {
    const double cost = step(net, 1);
    result.cost_curve.push_back(cost);
    // Track the best *derived* config periodically (and at the end).
    if ((it + 1) % 25 == 0 || it + 1 == cfg_.iterations) {
      const AcceleratorConfig cand = derive();
      HwEval eval = predictor_.evaluate(net, cand);
      const double cand_cost = predictor_.scalar_cost(eval);
      if (!have_best ||
          better(eval, cand_cost, result.eval, result.best_cost)) {
        have_best = true;
        result.config = cand;
        result.eval = std::move(eval);
        result.best_cost = cand_cost;
      }
    }
  }
  // The incumbent (best sampled candidate) may beat the derived argmax; the
  // search's answer is whichever is better under the same cost model.
  if (has_best_seen_ && better(best_seen_eval_, best_seen_cost_, result.eval,
                               result.best_cost)) {
    result.config = best_seen_config_;
    result.eval = best_seen_eval_;
    result.best_cost = best_seen_cost_;
  }
  return result;
}

DasResult random_search(const AcceleratorSpace& space,
                        const Predictor& predictor,
                        const std::vector<nn::LayerSpec>& specs, int samples,
                        std::uint64_t seed_value) {
  util::Rng rng(seed_value);
  DasResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  bool have_best = false;
  // Draw serially (fixed RNG order), evaluate in parallel blocks, reduce
  // serially in draw order — identical results at any thread count.
  const accel::PreparedNetwork net = accel::prepare_network(specs);
  constexpr int kBlock = 256;
  std::vector<DrawnSample> drawn;
  std::vector<EvaluatedSample> evaluated;
  for (int i0 = 0; i0 < samples; i0 += kBlock) {
    const int count = std::min(kBlock, samples - i0);
    drawn.assign(static_cast<std::size_t>(count), DrawnSample{});
    for (int i = 0; i < count; ++i) {
      drawn[static_cast<std::size_t>(i)].choices = space.random_choices(rng);
    }
    evaluate_batch(space, predictor, net, drawn, evaluated);
    for (const EvaluatedSample& ev : evaluated) {
      result.cost_curve.push_back(ev.cost);
      if (!have_best ||
          better(ev.eval, ev.cost, result.eval, result.best_cost)) {
        have_best = true;
        result.config = ev.config;
        result.eval = ev.eval;
        result.best_cost = ev.cost;
      }
    }
  }
  return result;
}

DasResult exhaustive_search(const AcceleratorSpace& space,
                            const Predictor& predictor,
                            const std::vector<nn::LayerSpec>& specs,
                            double max_configs) {
  A3CS_CHECK(space.size() <= max_configs,
             "exhaustive_search: space too large to enumerate");
  DasResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  bool have_best = false;
  std::vector<int> choices(static_cast<std::size_t>(space.num_knobs()), 0);
  // Enumerate the odometer serially into fixed-size blocks, evaluate each
  // block in parallel, reduce serially in enumeration order.
  const accel::PreparedNetwork net = accel::prepare_network(specs);
  constexpr int kBlock = 512;
  std::vector<DrawnSample> drawn;
  std::vector<EvaluatedSample> evaluated;
  bool exhausted = false;
  while (!exhausted) {
    drawn.clear();
    while (static_cast<int>(drawn.size()) < kBlock && !exhausted) {
      DrawnSample d;
      d.choices = choices;
      drawn.push_back(std::move(d));
      // Odometer increment.
      int k = 0;
      for (; k < space.num_knobs(); ++k) {
        if (++choices[static_cast<std::size_t>(k)] <
            space.knobs()[static_cast<std::size_t>(k)].num_choices) {
          break;
        }
        choices[static_cast<std::size_t>(k)] = 0;
      }
      if (k == space.num_knobs()) exhausted = true;
    }
    evaluate_batch(space, predictor, net, drawn, evaluated);
    for (const EvaluatedSample& ev : evaluated) {
      if (!have_best ||
          better(ev.eval, ev.cost, result.eval, result.best_cost)) {
        have_best = true;
        result.config = ev.config;
        result.eval = ev.eval;
        result.best_cost = ev.cost;
      }
    }
  }
  return result;
}

}  // namespace a3cs::das
