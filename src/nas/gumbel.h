// Gumbel-Softmax machinery (Jang et al., paper Eq. 6-9).
//
// `GumbelCategorical` is a learnable categorical distribution over N discrete
// choices, sampled with the hard (one-hot / argmax) Gumbel trick on the
// forward pass and differentiated through the relaxed softmax on the backward
// pass:
//
//   y_k = softmax((logits + g) / tau)_k,     g ~ Gumbel(0,1)
//   d y_k / d logits_i = (1/tau) * y_k * (delta_ki - y_i)
//
// It backs both the architecture parameters alpha (one instance per supernet
// cell) and the accelerator parameters phi (one instance per design knob in
// the DAS engine).
#pragma once

#include <vector>

#include "nn/module.h"
#include "util/rng.h"

namespace a3cs::nas {

using nn::Parameter;

struct GumbelSample {
  int index = 0;              // argmax of the perturbed logits (hard choice)
  std::vector<float> relaxed; // relaxed probabilities y (softmax at tau)
};

class GumbelCategorical {
 public:
  GumbelCategorical(std::string name, int num_choices);

  int num_choices() const { return static_cast<int>(logits_.numel()); }

  // Draws Gumbel noise and returns the hard choice plus relaxed probs.
  GumbelSample sample(util::Rng& rng, double tau) const;
  // The same draw into `out`, reusing its storage.
  void sample(util::Rng& rng, double tau, GumbelSample& out) const;

  // Relaxed probabilities without noise (softmax(logits / tau)).
  std::vector<float> probabilities(double tau = 1.0) const;

  // argmax of the raw logits (the derived / final choice).
  int argmax() const;

  // Accumulates dL/dlogits given per-choice scalar sensitivities s_k
  // (s_k = <dL/dOut, O_k(x)> for NAS ops; s_k = L_cost * 1[k = sampled] for
  // DAS): dL/dlogit_i += (1/tau) * sum_k s_k * y_k * (delta_ki - y_i).
  void accumulate_grad(const GumbelSample& s,
                       const std::vector<float>& sensitivities, double tau);

  // Directly nudges one logit's gradient (used for the layer-wise hardware
  // cost penalty of Eq. 8, which only touches the activated choice).
  void add_grad(int index, float g);

  Parameter& param() { return logits_; }
  const Parameter& param() const { return logits_; }

 private:
  Parameter logits_;
};

}  // namespace a3cs::nas
