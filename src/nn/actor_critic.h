// Actor-critic network: a shared convolutional backbone (producing a 256-d
// feature vector, as in the paper's setup) with a policy-logit head and a
// scalar value head. The RL losses have closed-form gradients at the two
// heads, which `backward` accepts directly.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace a3cs::nn {

struct AcOutput {
  Tensor logits;  // (N, num_actions)
  Tensor value;   // (N, 1)
};

class ActorCriticNet {
 public:
  // `backbone` must map NCHW observations to (N, feature_dim) features.
  ActorCriticNet(std::unique_ptr<Module> backbone, int feature_dim,
                 int num_actions, util::Rng& rng);

  AcOutput forward(const Tensor& obs);
  // forward() through Module::infer: the same outputs, no backward cache.
  AcOutput infer(const Tensor& obs);

  // dlogits: (N, num_actions); dvalue: (N, 1). Accumulates into grads.
  void backward(const Tensor& dlogits, const Tensor& dvalue);

  std::vector<Parameter*> parameters();
  void zero_grad();
  std::int64_t num_parameters();

  int num_actions() const { return num_actions_; }
  Module& backbone() { return *backbone_; }

  // Checkpointing: name-keyed parameter dump. Loading matches tensors to
  // parameters BY NAME, so a reordered (or differently-built) layer list
  // fails loudly — missing, extra, duplicate or shape-mismatched names all
  // throw — instead of silently loading wrong weights into right slots.
  void save(const std::string& path);
  void load(const std::string& path);
  // Stream variants, used by the checkpoint subsystem to embed the
  // parameters as one section payload.
  void save_params(std::ostream& out);
  void load_params(std::istream& in);

  // Copies all weights from another net of identical construction.
  void copy_from(ActorCriticNet& other);

 private:
  std::unique_ptr<Module> backbone_;
  Linear policy_head_;
  Linear value_head_;
  int num_actions_;
  Tensor cached_features_;
  bool has_cache_ = false;
};

}  // namespace a3cs::nn
