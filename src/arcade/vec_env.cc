#include "arcade/vec_env.h"

#include <cstring>

#include "arcade/games.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace a3cs::arcade {

namespace {

// Below this many envs a step/reset runs inline: a toy-game step is a few
// hundred nanoseconds, so the pool's wake/handoff cost inverted the scaling
// (the committed 32-env baseline ran 1t 0.55 ms -> 8t 1.44 ms). Fixed
// constant, so the inline/fan-out decision depends only on the batch size —
// never on the thread count — and results are unchanged either way.
constexpr std::int64_t kMinParallelEnvs = 64;

// Envs per shard: the whole batch (one shard, run inline) below
// kMinParallelEnvs, one env each from there on.
std::int64_t env_grain(int num_envs) {
  return num_envs < kMinParallelEnvs ? num_envs : 1;
}

}  // namespace

VecEnv::VecEnv(const std::string& title, int num_envs,
               std::uint64_t seed_value)
    : title_(title) {
  A3CS_CHECK(num_envs >= 1, "VecEnv needs at least one env");
  for (int i = 0; i < num_envs; ++i) {
    envs_.push_back(make_game(title, seed_value + static_cast<std::uint64_t>(i)));
  }
  running_returns_.assign(envs_.size(), 0.0);
}

VecEnv::VecEnv(std::vector<std::unique_ptr<Env>> envs)
    : envs_(std::move(envs)) {
  A3CS_CHECK(!envs_.empty(), "VecEnv needs at least one env");
  title_ = envs_.front()->name();
  running_returns_.assign(envs_.size(), 0.0);
}

void VecEnv::copy_into_batch(Tensor& batch, int slot, const Tensor& obs) {
  const std::int64_t frame = obs.numel();
  std::memcpy(batch.data() + static_cast<std::size_t>(slot) * frame,
              obs.data(), static_cast<std::size_t>(frame) * sizeof(float));
}

void VecEnv::ensure_buffers() {
  if (buffers_ready_) return;
  const ObsSpec spec = obs_spec();
  step_.obs = Tensor(tensor::Shape::nchw(num_envs(), spec.channels,
                                         spec.height, spec.width));
  step_.rewards.assign(envs_.size(), 0.0);
  step_.dones.assign(envs_.size(), 0);
  finished_scores_.assign(envs_.size(), 0.0);
  buffers_ready_ = true;
}

const Tensor& VecEnv::reset() {
  ensure_buffers();
  util::parallel_for(
      0, num_envs(), env_grain(num_envs()),
      [&](std::int64_t b, std::int64_t e) {
        for (int i = static_cast<int>(b); i < static_cast<int>(e); ++i) {
          copy_into_batch(step_.obs, i,
                          envs_[static_cast<std::size_t>(i)]->reset());
        }
      },
      "env-step");
  std::fill(running_returns_.begin(), running_returns_.end(), 0.0);
  return step_.obs;
}

const VecStep& VecEnv::step(const std::vector<int>& actions) {
  A3CS_CHECK(static_cast<int>(actions.size()) == num_envs(),
             "VecEnv::step action count mismatch");
  ensure_buffers();
  static obs::Counter& steps =
      obs::MetricsRegistry::global().counter("env.vec_steps");
  steps.inc();
  // Each env owns its slot of every per-env array, so shards are disjoint;
  // the cross-env episode bookkeeping happens serially below, in env order,
  // exactly as the serial loop produced it.
  util::parallel_for(
      0, num_envs(), env_grain(num_envs()),
      [&](std::int64_t b, std::int64_t e) {
        for (int i = static_cast<int>(b); i < static_cast<int>(e); ++i) {
          const auto idx = static_cast<std::size_t>(i);
          auto& env = envs_[idx];
          StepResult r = env->step(actions[idx]);
          running_returns_[idx] += r.reward;
          step_.rewards[idx] = r.reward;
          step_.dones[idx] = r.done ? 1 : 0;
          if (r.done) {
            finished_scores_[idx] = running_returns_[idx];
            running_returns_[idx] = 0.0;
            copy_into_batch(step_.obs, i, env->reset());
          } else {
            copy_into_batch(step_.obs, i, r.obs);
          }
        }
      },
      "env-step");
  for (int i = 0; i < num_envs(); ++i) {
    if (step_.dones[static_cast<std::size_t>(i)] != 0) {
      episode_scores_.push_back(finished_scores_[static_cast<std::size_t>(i)]);
      ++episodes_completed_;
    }
  }
  return step_;
}

void VecEnv::save_state(std::ostream& out) const {
  namespace sio = util::sio;
  sio::put_u32(out, static_cast<std::uint32_t>(envs_.size()));
  for (const auto& env : envs_) env->save_state(out);
  sio::put_f64_vec(out, episode_scores_);
  sio::put_f64_vec(out, running_returns_);
  sio::put_i64(out, episodes_completed_);
}

void VecEnv::load_state(std::istream& in) {
  namespace sio = util::sio;
  const std::uint32_t n = sio::get_u32(in);
  A3CS_CHECK(n == envs_.size(), "VecEnv::load_state: env count mismatch");
  for (auto& env : envs_) env->load_state(in);
  episode_scores_ = sio::get_f64_vec(in);
  running_returns_ = sio::get_f64_vec(in);
  A3CS_CHECK(running_returns_.size() == envs_.size(),
             "VecEnv::load_state: running_returns size mismatch");
  episodes_completed_ = sio::get_i64(in);
}

std::vector<double> VecEnv::drain_episode_scores() {
  std::vector<double> out = std::move(episode_scores_);
  episode_scores_.clear();
  return out;
}

}  // namespace a3cs::arcade
