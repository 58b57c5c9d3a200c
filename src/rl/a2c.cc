#include "rl/a2c.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace a3cs::rl {

LossCoefficients paper_distill_coefficients() {
  LossCoefficients c;
  c.entropy_beta = 1e-2;    // beta_1
  c.distill_actor = 1e-1;   // beta_2
  c.distill_critic = 1e-3;  // beta_3
  return c;
}

LossCoefficients policy_only_distill_coefficients() {
  LossCoefficients c = paper_distill_coefficients();
  c.distill_critic = 0.0;
  return c;
}

LossCoefficients no_distill_coefficients() {
  LossCoefficients c = paper_distill_coefficients();
  c.distill_actor = 0.0;
  c.distill_critic = 0.0;
  return c;
}

RolloutLoss rollout_loss(nn::ActorCriticNet& net, const Rollout& rollout,
                         const A2cConfig& cfg, nn::ActorCriticNet* teacher) {
  // Bootstrap values for the post-rollout states (V(s_L) per env): only the
  // values are needed, so no backward cache. It runs before the batch
  // forward, whose caches the backward reads (a supernet's infer drops them)
  // and whose Gumbel draws follow this one's on the shared sampler.
  const auto boot = net.infer(rollout.last_obs);

  // Batch forward over every rollout entry (step-major stacking).
  const Tensor batch_obs = rollout.stacked_obs();
  const auto ac = net.forward(batch_obs);

  const Targets targets =
      compute_targets(rollout.rewards, rollout.dones, ac.value, boot.value,
                      cfg.gamma, cfg.advantage);

  // Flatten actions step-major to match the stacked batch.
  std::vector<int> actions;
  actions.reserve(static_cast<std::size_t>(rollout.length()) *
                  rollout.num_envs());
  for (const auto& step_actions : rollout.actions) {
    actions.insert(actions.end(), step_actions.begin(), step_actions.end());
  }

  // Teacher signals on the same batch.
  Tensor teacher_probs, teacher_values;
  LossCoefficients coef = cfg.loss;
  if (teacher != nullptr &&
      (coef.distill_actor != 0.0 || coef.distill_critic != 0.0)) {
    A3CS_PROF_SCOPE("teacher-fwd");
    const auto tea = teacher->infer(batch_obs);
    teacher_probs = Tensor(tea.logits.shape());
    tensor::softmax_rows(tea.logits, teacher_probs);
    teacher_values = tea.value;
  } else {
    coef.distill_actor = 0.0;
    coef.distill_critic = 0.0;
  }

  LossInputs in;
  in.logits = &ac.logits;
  in.values = &ac.value;
  in.actions = &actions;
  in.advantages = &targets.advantages;
  in.returns = &targets.returns;
  if (coef.distill_actor != 0.0 || coef.distill_critic != 0.0) {
    in.teacher_probs = &teacher_probs;
    in.teacher_values = &teacher_values;
  }

  RolloutLoss out;
  out.grads = task_loss(in, coef, &out.stats);
  out.value_abs_max = ac.value.abs_max();
  return out;
}

UpdateStats a2c_update(nn::ActorCriticNet& net, const Rollout& rollout,
                       const A2cConfig& cfg, nn::Optimizer& opt,
                       nn::ActorCriticNet* teacher) {
  A3CS_PROF_SCOPE("a2c-update");
  static obs::Counter& updates =
      obs::MetricsRegistry::global().counter("a2c.updates");
  updates.inc();
  const RolloutLoss loss = rollout_loss(net, rollout, cfg, teacher);
  UpdateStats stats;
  stats.loss = loss.stats;

  static obs::Counter& skips =
      obs::MetricsRegistry::global().counter("guard.a2c_skips");
  static obs::Gauge& grad_norm_gauge =
      obs::MetricsRegistry::global().gauge("train.grad_norm");
  static obs::Gauge& param_norm_gauge =
      obs::MetricsRegistry::global().gauge("train.param_norm");

  auto params = net.parameters();
  if (!std::isfinite(stats.loss.total)) {
    // The head gradients are built from the same poisoned terms; dropping
    // the batch before backward keeps the accumulated grads clean.
    net.zero_grad();
    stats.skipped = true;
    stats.grad_norm = std::numeric_limits<float>::quiet_NaN();
  } else {
    net.zero_grad();
    net.backward(loss.grads.dlogits, loss.grads.dvalue);
    const nn::NormStats grad_stats = nn::grad_norm_stats(params);
    stats.grad_norm = static_cast<float>(grad_stats.norm);
    if (!grad_stats.finite) {
      nn::zero_gradients(params);
      stats.skipped = true;
    } else {
      nn::clip_grad_norm(params, static_cast<float>(cfg.grad_clip));
      opt.step(params);
    }
  }
  if (stats.skipped) {
    skips.inc();
    if (obs::trace_active()) {
      obs::trace_event("guard_event")
          .kv("kind", "a2c_skip")
          .kv("loss_total", stats.loss.total)
          .kv("grad_norm", static_cast<double>(stats.grad_norm));
    }
  }
  stats.param_norm = static_cast<float>(nn::param_norm_stats(params).norm);
  grad_norm_gauge.set(stats.grad_norm);
  param_norm_gauge.set(stats.param_norm);
  return stats;
}

A2cTrainer::A2cTrainer(nn::ActorCriticNet& net, arcade::VecEnv& envs,
                       A2cConfig cfg, nn::ActorCriticNet* teacher)
    : net_(net),
      envs_(envs),
      cfg_(cfg),
      teacher_(teacher),
      collector_(envs, util::Rng(cfg.seed)),
      opt_(cfg.lr_start) {
  A3CS_CHECK(envs.num_envs() >= 1, "A2cTrainer: needs at least one env");
}

void A2cTrainer::train(std::int64_t total_frames, Callback callback,
                       std::int64_t callback_every) {
  const nn::LinearLrSchedule schedule(
      cfg_.lr_start, cfg_.lr_end,
      static_cast<std::int64_t>(cfg_.lr_hold_frac *
                                static_cast<double>(total_frames)),
      total_frames);
  std::int64_t next_callback = callback_every;
  while (collector_.frames() < total_frames) {
    opt_.set_learning_rate(schedule.at(collector_.frames()));
    Rollout rollout;
    {
      A3CS_PROF_SCOPE("a2c-rollout");
      rollout = collector_.collect(net_, cfg_.rollout_len);
    }
    last_update_ = a2c_update(net_, rollout, cfg_, opt_, teacher_);
    if (callback && callback_every > 0 &&
        collector_.frames() >= next_callback) {
      callback(collector_.frames());
      next_callback += callback_every;
    }
  }
}

}  // namespace a3cs::rl
