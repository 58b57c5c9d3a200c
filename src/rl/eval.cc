#include "rl/eval.h"

#include "arcade/games.h"
#include "rl/rollout.h"
#include "tensor/ops.h"
#include "util/stats.h"

namespace a3cs::rl {

EvalResult evaluate_agent(nn::ActorCriticNet& net,
                          const std::string& game_title,
                          const EvalConfig& cfg) {
  util::Rng rng(cfg.seed);
  util::RunningStats stats;
  for (int ep = 0; ep < cfg.episodes; ++ep) {
    auto env = arcade::make_game(game_title, cfg.seed + 1000 +
                                                  static_cast<std::uint64_t>(ep));
    Tensor obs = env->reset();
    double score = 0.0;
    bool done = false;

    // Null-op starts: up to `max_noop_starts` no-ops before the agent acts.
    const int noops = rng.uniform_int(cfg.max_noop_starts + 1);
    for (int i = 0; i < noops && !done; ++i) {
      auto r = env->step(0);
      score += r.reward;
      done = r.done;
      obs = r.obs;
    }

    while (!done) {
      const auto ac = net.infer(obs);
      int action;
      if (cfg.sample_actions) {
        action = sample_actions(ac.logits, rng).front();
      } else {
        action = static_cast<int>(tensor::argmax(ac.logits));
      }
      auto r = env->step(action);
      score += r.reward;
      done = r.done;
      obs = r.obs;
    }
    stats.add(score);
  }
  EvalResult out;
  out.mean_score = stats.mean();
  out.stddev = stats.stddev();
  out.min_score = stats.min();
  out.max_score = stats.max();
  out.episodes = static_cast<int>(stats.count());
  return out;
}

}  // namespace a3cs::rl
