#include "nn/actor_critic.h"

#include <unordered_map>

#include "nn/init.h"
#include "tensor/serialize.h"
#include "util/logging.h"

namespace a3cs::nn {

ActorCriticNet::ActorCriticNet(std::unique_ptr<Module> backbone,
                               int feature_dim, int num_actions,
                               util::Rng& rng)
    : backbone_(std::move(backbone)),
      // Small-scale head init keeps the initial policy near uniform and the
      // initial value near zero, which stabilizes early A2C updates.
      policy_head_("policy_head", feature_dim, num_actions, rng, 0.01f),
      value_head_("value_head", feature_dim, 1, rng, 0.1f),
      num_actions_(num_actions) {
  A3CS_CHECK(backbone_ != nullptr, "null backbone");
  A3CS_CHECK(num_actions > 0, "bad action count");
}

AcOutput ActorCriticNet::forward(const Tensor& obs) {
  cached_features_ = backbone_->forward(obs);
  A3CS_CHECK(cached_features_.shape().rank() == 2,
             "backbone must emit (N, F) features");
  has_cache_ = true;
  AcOutput out;
  out.logits = policy_head_.forward(cached_features_);
  out.value = value_head_.forward(cached_features_);
  return out;
}

AcOutput ActorCriticNet::infer(const Tensor& obs) {
  Tensor features = backbone_->infer(obs);
  A3CS_CHECK(features.shape().rank() == 2,
             "backbone must emit (N, F) features");
  AcOutput out;
  out.logits = policy_head_.infer(features);
  out.value = value_head_.infer(std::move(features));
  return out;
}

void ActorCriticNet::backward(const Tensor& dlogits, const Tensor& dvalue) {
  A3CS_CHECK(has_cache_, "ActorCriticNet: backward before forward");
  Tensor g_feat = policy_head_.backward(dlogits);
  g_feat += value_head_.backward(dvalue);
  backbone_->backward(g_feat);
  has_cache_ = false;
}

std::vector<Parameter*> ActorCriticNet::parameters() {
  std::vector<Parameter*> out;
  backbone_->collect_parameters(out);
  policy_head_.collect_parameters(out);
  value_head_.collect_parameters(out);
  return out;
}

void ActorCriticNet::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::int64_t ActorCriticNet::num_parameters() {
  std::int64_t n = 0;
  for (Parameter* p : parameters()) n += p->numel();
  return n;
}

namespace {

// Name-keyed restore shared by the file and stream load paths. Every
// parameter must find exactly one same-named, same-shaped tensor, and every
// tensor must be consumed — anything else is a structural mismatch between
// the checkpoint and this network, reported loudly.
void assign_named(const std::vector<std::pair<std::string, Tensor>>& named,
                  const std::vector<Parameter*>& params) {
  std::unordered_map<std::string, const Tensor*> by_name;
  by_name.reserve(named.size());
  for (const auto& [name, t] : named) {
    const bool inserted = by_name.emplace(name, &t).second;
    A3CS_CHECK(inserted, "checkpoint has duplicate parameter name '" + name +
                             "' — cannot match unambiguously");
  }
  A3CS_CHECK(named.size() == params.size(),
             "checkpoint parameter count mismatch: file has " +
                 std::to_string(named.size()) + ", network has " +
                 std::to_string(params.size()));
  for (Parameter* p : params) {
    const auto it = by_name.find(p->name);
    A3CS_CHECK(it != by_name.end(),
               "checkpoint is missing parameter '" + p->name + "'");
    A3CS_CHECK(it->second->same_shape(p->value),
               "checkpoint shape mismatch at " + p->name);
    p->value = *it->second;
  }
}

}  // namespace

void ActorCriticNet::save(const std::string& path) {
  std::vector<std::pair<std::string, Tensor>> named;
  for (Parameter* p : parameters()) named.emplace_back(p->name, p->value);
  tensor::write_tensors(path, named);
}

void ActorCriticNet::load(const std::string& path) {
  assign_named(tensor::read_tensors(path), parameters());
}

void ActorCriticNet::save_params(std::ostream& out) {
  std::vector<std::pair<std::string, Tensor>> named;
  for (Parameter* p : parameters()) named.emplace_back(p->name, p->value);
  tensor::write_tensors(out, named);
}

void ActorCriticNet::load_params(std::istream& in) {
  assign_named(tensor::read_tensors(in), parameters());
}

void ActorCriticNet::copy_from(ActorCriticNet& other) {
  auto src = other.parameters();
  auto dst = parameters();
  A3CS_CHECK(src.size() == dst.size(), "copy_from: parameter count mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    A3CS_CHECK(src[i]->value.same_shape(dst[i]->value),
               "copy_from: shape mismatch at " + src[i]->name);
    dst[i]->value = src[i]->value;
  }
}

}  // namespace a3cs::nn
