#include "rl/rollout.h"

#include <cstring>

#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/logging.h"
#include "util/state_io.h"

namespace a3cs::rl {

Tensor Rollout::stacked_obs() const {
  A3CS_CHECK(!obs.empty(), "stacked_obs on empty rollout");
  const auto& s = obs.front().shape();
  const int n = s[0];
  Tensor out(tensor::Shape::nchw(length() * n, s[1], s[2], s[3]));
  const std::int64_t step_elems = obs.front().numel();
  for (int t = 0; t < length(); ++t) {
    std::memcpy(out.data() + static_cast<std::size_t>(t) * step_elems,
                obs[static_cast<std::size_t>(t)].data(),
                static_cast<std::size_t>(step_elems) * sizeof(float));
  }
  return out;
}

RolloutCollector::RolloutCollector(VecEnv& envs, util::Rng rng)
    : envs_(envs), rng_(rng) {}

std::vector<int> sample_actions(const Tensor& logits, util::Rng& rng) {
  A3CS_CHECK(logits.shape().rank() == 2, "sample_actions expects (N, A)");
  const int n = logits.shape()[0], a = logits.shape()[1];
  Tensor probs(logits.shape());
  tensor::softmax_rows(logits, probs);
  std::vector<int> actions(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(a));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < a; ++j) {
      w[static_cast<std::size_t>(j)] = probs.at2(i, j);
    }
    actions[static_cast<std::size_t>(i)] = rng.categorical(w);
  }
  return actions;
}

Rollout RolloutCollector::collect(ActorCriticNet& net, int length) {
  if (!started_) {
    current_obs_ = envs_.reset();
    started_ = true;
  }
  Rollout out;
  out.obs.reserve(static_cast<std::size_t>(length));
  for (int t = 0; t < length; ++t) {
    out.obs.push_back(current_obs_);
    const auto ac = net.infer(current_obs_);
    auto actions = sample_actions(ac.logits, rng_);
    const auto& step = envs_.step(actions);
    out.actions.push_back(std::move(actions));
    out.rewards.push_back(step.rewards);
    std::vector<bool> dones(step.dones.begin(), step.dones.end());
    out.dones.push_back(std::move(dones));
    current_obs_ = step.obs;
    frames_ += envs_.num_envs();
  }
  out.last_obs = current_obs_;
  return out;
}

void RolloutCollector::save_state(std::ostream& out) const {
  namespace sio = util::sio;
  sio::put_rng(out, rng_);
  sio::put_i64(out, frames_);
  sio::put_bool(out, started_);
  if (started_) tensor::write_tensor(out, current_obs_);
  envs_.save_state(out);
}

void RolloutCollector::load_state(std::istream& in) {
  namespace sio = util::sio;
  sio::get_rng(in, rng_);
  frames_ = sio::get_i64(in);
  started_ = sio::get_bool(in);
  if (started_) {
    current_obs_ = tensor::read_tensor(in);
  } else {
    current_obs_ = Tensor();
  }
  envs_.load_state(in);
}

}  // namespace a3cs::rl
