// MixedOp: one searchable supernet cell (paper Eq. 6-7).
//
// Forward activates exactly ONE candidate operator, chosen by hard
// Gumbel-Softmax over the cell's architecture logits alpha (single-path
// forward, Eq. 6). Backward propagates the task gradient through that
// operator only, but estimates dL/dalpha through the RELAXED Gumbel-Softmax
// over the top-K candidates (multi-path backward, Eq. 7): the forward outputs
// of the K-1 other highest-probability candidates are evaluated solely to
// form the inner products <dL/dOut, O_k(x)>.
#pragma once

#include <memory>
#include <vector>

#include "nas/gumbel.h"
#include "nas/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace a3cs::nas {

class MixedOp : public nn::Module {
 public:
  // Builds all 9 candidate operators for this cell geometry.
  MixedOp(std::string name, int in_c, int out_c, int stride, util::Rng& rng,
          util::Rng* sampler, const double* tau, int backward_paths);

  nn::Tensor forward(const nn::Tensor& x) override;
  // Draws the same sample as forward (and sets last_choice()), runs the
  // chosen candidate's infer and drops any cache, so backward() throws.
  nn::Tensor infer(nn::Tensor x) override;
  nn::Tensor backward(const nn::Tensor& grad_out) override;
  // Supernet WEIGHTS only; alpha is exposed separately via alpha_param().
  void collect_parameters(std::vector<nn::Parameter*>& out) override;
  std::string name() const override { return name_; }

  GumbelCategorical& alpha() { return alpha_; }
  const GumbelCategorical& alpha() const { return alpha_; }

  // Index sampled by the most recent forward.
  int last_choice() const { return last_sample_.index; }
  // argmax-alpha choice (the derived op).
  int best_choice() const { return alpha_.argmax(); }

  int num_candidates() const { return static_cast<int>(ops_.size()); }
  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int stride() const { return stride_; }

  // When true, forward uses argmax(alpha) instead of sampling — used when
  // evaluating the derived architecture through the supernet weights.
  void set_argmax_mode(bool on) { argmax_mode_ = on; }

 private:
  std::string name_;
  int in_c_, out_c_, stride_;
  std::vector<std::unique_ptr<nn::Module>> ops_;
  GumbelCategorical alpha_;
  util::Rng* sampler_;   // shared across the supernet (not owned)
  const double* tau_;    // shared temperature (not owned)
  int backward_paths_;   // K of Eq. 7
  bool argmax_mode_ = false;

  // Sets last_sample_ for the next forward/infer: argmax(alpha) in argmax
  // mode, else one Gumbel draw from the shared sampler.
  nn::Module& choose();

  GumbelSample last_sample_;
  nn::Tensor cached_input_;
  nn::Tensor cached_output_;
  bool has_cache_ = false;

  // Backward scratch, sized once at construction instead of per step: the
  // top-K candidate ranking and the per-candidate sensitivity inner products
  // <dL/dOut, O_k(x)> (Eq. 7), each slot written by exactly one pool task.
  std::vector<int> order_;
  std::vector<float> sens_;
};

}  // namespace a3cs::nas
