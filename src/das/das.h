// DAS: the Differentiable Accelerator Search engine (paper Eq. 9).
//
// One GumbelCategorical per design knob (phi^m). Every iteration hard-samples
// all knobs to instantiate a concrete accelerator, evaluates the overall
// hardware cost L_cost with the analytical predictor, and pushes the cost
// back into every sampled logit through the relaxed Gumbel-Softmax — i.e.
//
//   phi* = argmin_phi sum_m GS_hard(phi^m) * L_cost(hw({GS_hard(phi^m)}), net)
//
// with log(cost) as the signal (scale-free across networks whose cycle counts
// differ by orders of magnitude) and an EMA baseline subtracted from it for
// variance reduction (standard for single-sample estimators). Every sample is
// scored by a direct accel::Predictor call, the "fast and reliable
// estimation during search" of paper Sec. V-A.
#pragma once

#include <iosfwd>
#include <vector>

#include "accel/predictor.h"
#include "accel/space.h"
#include "nas/gumbel.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace a3cs::das {

using accel::AcceleratorConfig;
using accel::AcceleratorSpace;
using accel::HwEval;
using accel::Predictor;

struct DasConfig {
  int iterations = 1500;
  int samples_per_iter = 4;  // averaged relaxed-gradient samples per step
  double lr = 0.1;           // Adam on the phi logits
  double tau_init = 5.0;
  double tau_decay = 0.997;
  double tau_min = 0.3;
  // Fraction of evaluation samples drawn uniformly at random (exploration);
  // they update the incumbent only, never the gradient estimator.
  double explore_eps = 0.15;
  std::uint64_t seed = 3;
};

struct DasResult {
  AcceleratorConfig config;      // best feasible configuration found
  HwEval eval;                   // its evaluation
  double best_cost = 0.0;
  std::vector<double> cost_curve;  // sampled cost per iteration
};

class DasEngine {
 public:
  DasEngine(const AcceleratorSpace& space, const Predictor& predictor,
            DasConfig cfg = DasConfig{});

  // Runs the full search for a fixed network.
  DasResult search(const std::vector<nn::LayerSpec>& specs);

  // Runs `n` incremental gradient steps (used inside the A3C-S co-search
  // loop, where phi persists while the network keeps changing). Returns the
  // sampled cost of the last step.
  double step(const std::vector<nn::LayerSpec>& specs, int n = 1);
  // The same on a network already decomposed by accel::prepare_network.
  double step(const accel::PreparedNetwork& net, int n = 1);

  // Current argmax-phi configuration / its evaluation.
  AcceleratorConfig derive() const;
  HwEval derive_eval(const std::vector<nn::LayerSpec>& specs) const;

  double temperature() const { return tau_; }
  const AcceleratorSpace& space() const { return space_; }

  // Replaces the sampling RNG stream (guard rollback reseed; see
  // docs/ROBUSTNESS.md).
  void reseed(std::uint64_t seed_value) { rng_.reseed(seed_value); }

  // Best configuration sampled so far (the search evaluates thousands of
  // candidates; keeping the incumbent makes DAS strictly budget-comparable
  // to best-of-N sampling).
  bool has_incumbent() const { return has_best_seen_; }
  const AcceleratorConfig& incumbent() const { return best_seen_config_; }
  const HwEval& incumbent_eval() const { return best_seen_eval_; }
  double incumbent_cost() const { return best_seen_cost_; }

  // Checkpointing: the COMPLETE search state — phi logits, their Adam
  // moments, the sample RNG, temperature, EMA baseline and the incumbent —
  // so a restored engine continues the search bit-exactly. load throws on
  // knob-count mismatch or truncation.
  void save_state(std::ostream& out) const;
  void load_state(std::istream& in);

  // One drawn-but-not-yet-evaluated accelerator sample, and its score.
  // Sampling consumes the engine RNG and stays serial, in the serial loop's
  // order; the predictor evaluations are pure and fan out over the pool; the
  // gradient/incumbent bookkeeping is replayed serially in draw order, so
  // baselines and incumbents are bit-exact at any thread count.
  struct DrawnSample {
    bool explore = false;
    std::vector<nas::GumbelSample> gumbel;  // unused for explore draws
    std::vector<int> choices;
  };
  struct EvaluatedSample {
    AcceleratorConfig config;
    HwEval eval;
    double cost = 0.0;
  };

 private:
  const AcceleratorSpace& space_;
  const Predictor& predictor_;
  // Construction config, re-supplied on resume.
  DasConfig cfg_;  // A3CS_LINT(ser-field-coverage)
  std::vector<nas::GumbelCategorical> phis_;
  nn::Adam opt_;
  util::Rng rng_;
  double tau_;
  double baseline_ = 0.0;
  bool baseline_init_ = false;
  bool has_best_seen_ = false;
  AcceleratorConfig best_seen_config_;
  HwEval best_seen_eval_;
  double best_seen_cost_ = 0.0;

  // step()'s per-draw buffers, kept so their storage is reused across
  // calls. Scratch only: every step() rewrites each entry it reads before
  // reading it, so checkpoints skip it.
  std::vector<DrawnSample> drawn_;          // A3CS_LINT(ser-field-coverage)
  std::vector<EvaluatedSample> evaluated_;  // A3CS_LINT(ser-field-coverage)
};

// Baselines used to validate DAS (bench_das_quality):
// best-of-N random sampling ...
DasResult random_search(const AcceleratorSpace& space,
                        const Predictor& predictor,
                        const std::vector<nn::LayerSpec>& specs, int samples,
                        std::uint64_t seed_value);
// ... and exhaustive enumeration (tiny spaces only; checked).
DasResult exhaustive_search(const AcceleratorSpace& space,
                            const Predictor& predictor,
                            const std::vector<nn::LayerSpec>& specs,
                            double max_configs = 2e6);

}  // namespace a3cs::das
