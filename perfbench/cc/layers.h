// Pieces the traced runs of `cosearch` and `train_eval` share: a rollout
// collector that drives the policy and the environments itself (so the two
// calls get their own spans), and the window that turns the traced phase's
// spans, profiler scopes, pool counters and allocation counts into
// per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "arcade/vec_env.h"
#include "bench.h"
#include "nn/actor_critic.h"
#include "rl/rollout.h"
#include "util/rng.h"

namespace perfbench {

// Both training workloads play Catch, distilling from an untrained zoo
// ResNet-20 built from a fixed seed: setup and trajectory never touch the
// teacher cache on disk.
inline constexpr const char* kGame = "Catch";
std::unique_ptr<nn::ActorCriticNet> make_teacher();

// <work_dir>/<name>, emptied.
std::string fresh_dir(const Options& opt, const std::string& name);

// Same calls in the same order as rl::RolloutCollector::collect (so the same
// trajectory from the same state), with spans `nas.policy_fwd` and
// `arcade.step` around the policy forward and the environment step.
class TracedRollout {
 public:
  TracedRollout(arcade::VecEnv& envs, util::Rng rng)
      : envs_(envs), rng_(rng) {}

  rl::Rollout collect(nn::ActorCriticNet& net, int length);
  std::int64_t frames() const { return frames_; }

 private:
  arcade::VecEnv& envs_;
  util::Rng rng_;
  tensor::Tensor current_obs_;
  bool started_ = false;
  std::int64_t frames_ = 0;
};

// Brackets a traced phase. begin() enables spans, the library profiler and
// allocation counting; end() disables them and adds the per-layer metrics,
// normalized per `core.iteration` span, to `out`. The span file is written
// to `trace_path`.
class TraceWindow {
 public:
  void begin();
  void end(Outcome& out, const std::string& trace_path);

 private:
  std::int64_t parallel0_ = 0, inline0_ = 0;
};

}  // namespace perfbench
