// Synchronous advantage actor-critic (A2C) trainer with the paper's
// AC-distillation mechanism (Sec. IV-B). This is the training loop used both
// to train standalone agents (Tables I/II, Fig. 1) and — via the exposed
// single-update entry point — inside the A3C-S co-search loop (Alg. 1),
// which interleaves accelerator-parameter updates between rollouts.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "arcade/vec_env.h"
#include "nn/actor_critic.h"
#include "nn/optim.h"
#include "rl/losses.h"
#include "rl/rollout.h"
#include "util/stats.h"

namespace a3cs::rl {

struct A2cConfig {
  int num_envs = 8;
  int rollout_len = 5;          // paper Sec. V-A
  double gamma = 0.99;          // paper Sec. V-A
  double lr_start = 1e-3;       // paper: constant then linear decay
  double lr_end = 1e-4;
  // Fractions of the run spent at lr_start / decaying (paper: first third).
  double lr_hold_frac = 1.0 / 3.0;
  double grad_clip = 5.0;
  AdvantageConfig advantage;    // n-step (default) / td-error / GAE
  LossCoefficients loss;        // entropy/distillation coefficients
  std::uint64_t seed = 1;
};

// The paper's distillation coefficients (Sec. V-A): b1=1e-2, b2=1e-1, b3=1e-3.
LossCoefficients paper_distill_coefficients();
// Policy-only distillation baseline (Table II middle column): b3 = 0.
LossCoefficients policy_only_distill_coefficients();
// No distillation baseline: b2 = b3 = 0.
LossCoefficients no_distill_coefficients();

struct UpdateStats {
  LossStats loss;
  float grad_norm = 0.0f;   // pre-clip fused global norm (NaN when skipped)
  float param_norm = 0.0f;  // post-step fused global parameter norm
  // The guarded update dropped this batch: a loss term or the gradient norm
  // was non-finite, the gradients were zeroed and the optimizer not stepped.
  bool skipped = false;
};

// The AC-distilled task loss (Eq. 12) of one rollout, shared by a2c_update
// and the co-search iteration: bootstrap forward on the post-rollout states,
// batch forward over the step-major stacked rollout, targets, the teacher's
// softmax on the same batch and task_loss's head gradients. `net` is left
// holding the batch forward's caches, so the caller backprops `grads` next.
// Without a teacher the distillation terms are off whatever `cfg.loss` says.
struct RolloutLoss {
  HeadGradients grads;
  LossStats stats;
  float value_abs_max = 0.0f;  // max |V(s)| over the batch
};
RolloutLoss rollout_loss(nn::ActorCriticNet& net, const Rollout& rollout,
                         const A2cConfig& cfg, nn::ActorCriticNet* teacher);

// One A2C update from a collected rollout: rollout_loss, then backprop and a
// step of `opt`. Exposed separately so benches can drive it directly.
//
// The update is GUARDED: a non-finite loss term or gradient norm zeroes the
// gradients and skips the optimizer step (stats.skipped), so one poisoned
// batch costs one update instead of the whole run; the pre-clip gradient
// norm and post-step parameter norm land in the train.grad_norm /
// train.param_norm gauges either way (see docs/ROBUSTNESS.md).
UpdateStats a2c_update(nn::ActorCriticNet& net, const Rollout& rollout,
                       const A2cConfig& cfg, nn::Optimizer& opt,
                       nn::ActorCriticNet* teacher);

class A2cTrainer {
 public:
  // `teacher` may be null (no distillation regardless of coefficients).
  A2cTrainer(nn::ActorCriticNet& net, arcade::VecEnv& envs, A2cConfig cfg,
             nn::ActorCriticNet* teacher = nullptr);

  // Runs until `total_frames` env frames have been consumed. The callback
  // (if given) fires roughly every `callback_every` frames with the frame
  // count — benches use it to record score curves.
  using Callback = std::function<void(std::int64_t frames)>;
  void train(std::int64_t total_frames, Callback callback = nullptr,
             std::int64_t callback_every = 0);

  // Mean score over episodes completed during training (all, most recent
  // window handled by the caller via drain).
  std::vector<double> drain_episode_scores() {
    return envs_.drain_episode_scores();
  }

  std::int64_t frames() const { return collector_.frames(); }
  const UpdateStats& last_update() const { return last_update_; }

 private:
  nn::ActorCriticNet& net_;
  arcade::VecEnv& envs_;
  A2cConfig cfg_;
  nn::ActorCriticNet* teacher_;
  RolloutCollector collector_;
  nn::RmsProp opt_;
  UpdateStats last_update_;
};

}  // namespace a3cs::rl
