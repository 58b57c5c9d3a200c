// The A3C-S supernet: stem + `num_cells` MixedOps + FC-256, usable directly
// as the backbone of an nn::ActorCriticNet so the whole DRL stack (rollouts,
// losses, distillation) runs unchanged on the supernet during search.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "nas/arch.h"
#include "nas/mixed_op.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace a3cs::nas {

struct SupernetConfig {
  SearchSpaceConfig space;
  int backward_paths = 2;    // K of Eq. 7 (multi-path backward)
  double tau_init = 5.0;     // paper: initial Gumbel temperature 5
  double tau_decay = 0.98;   // paper: x0.98 on a fixed step schedule
  std::uint64_t sample_seed = 99;
};

class Supernet : public nn::Module {
 public:
  Supernet(const nn::ObsSpec& obs, SupernetConfig cfg, util::Rng& rng);

  nn::Tensor forward(const nn::Tensor& x) override;
  nn::Tensor infer(nn::Tensor x) override;
  nn::Tensor backward(const nn::Tensor& grad_out) override;
  // Weights only (stem, all candidate ops, fc); alphas via alpha_params().
  void collect_parameters(std::vector<nn::Parameter*>& out) override;
  std::string name() const override { return "supernet"; }

  std::vector<nn::Parameter*> alpha_params();
  void zero_alpha_grads();

  double temperature() const { return tau_; }
  void set_temperature(double t) { tau_ = t; }
  void decay_temperature() { tau_ *= cfg_.tau_decay; }

  // Per-cell op indices sampled by the most recent forward / by argmax.
  std::vector<int> last_choices() const;
  DerivedArch derive() const;

  // Shannon entropy (nats) of each cell's alpha distribution at tau=1 — the
  // standard DNAS convergence diagnostic (entropy -> 0 as alpha commits).
  std::vector<double> alpha_entropies() const;

  // Evaluate-derived mode: forwards use argmax(alpha) and alpha gradients
  // are disabled.
  void set_argmax_mode(bool on);

  // Replaces the Gumbel sampler's RNG stream. Used by the guard's rollback
  // path: the healed replay must explore different single-path samples
  // instead of deterministically re-diverging into the same failure.
  void reseed_sampler(std::uint64_t seed_value) { sampler_.reseed(seed_value); }

  int feature_dim() const { return geometry_.feature_dim; }
  int num_cells() const { return static_cast<int>(cells_.size()); }
  const SpaceGeometry& geometry() const { return geometry_; }
  const SupernetConfig& config() const { return cfg_; }

  // Checkpointing: the sampling-side search state — Gumbel temperature and
  // the shared sampler RNG. Alpha logits and supernet weights are ordinary
  // parameters and are serialized separately by the caller. load throws on
  // truncation or cell-count mismatch.
  void save_search_state(std::ostream& out) const;
  void load_search_state(std::istream& in);

  // LayerSpecs of the network given per-cell choices (stem + cells + fc).
  std::vector<nn::LayerSpec> specs_for(const std::vector<int>& choices) const;
  // LayerSpecs contributed by a single cell under a given choice (for the
  // layer-wise hardware-cost penalty of Eq. 8).
  std::vector<nn::LayerSpec> cell_specs(int cell, int op_index) const;

  MixedOp& cell(int i) { return *cells_[static_cast<std::size_t>(i)]; }

 private:
  SupernetConfig cfg_;
  SpaceGeometry geometry_;
  double tau_;
  util::Rng sampler_;

  nn::Conv2d stem_;
  nn::ReLU stem_relu_;
  std::vector<std::unique_ptr<MixedOp>> cells_;
  nn::Flatten flatten_;
  nn::Linear fc_;
  nn::ReLU fc_relu_;
};

}  // namespace a3cs::nas
