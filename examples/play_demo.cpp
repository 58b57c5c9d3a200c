// Watch a trained agent play in ASCII: trains a small agent briefly, then
// renders one greedy episode frame by frame.
//
//   ./examples/play_demo [game] [train_frames] [--stacked]
#include <iostream>
#include <string>

#include "arcade/games.h"
#include "arcade/render.h"
#include "arcade/vec_env.h"
#include "arcade/wrappers.h"
#include "nn/zoo.h"
#include "rl/a2c.h"
#include "rl/rollout.h"
#include "tensor/ops.h"
#include "util/config.h"

using namespace a3cs;

int main(int argc, char** argv) {
  const std::string game = argc > 1 ? argv[1] : "Breakout";
  const std::int64_t frames =
      util::scaled_steps(util::count_arg(argc, argv, 2, "frames", 15000));
  const bool stacked =
      argc > 3 && std::string(argv[3]) == "--stacked";

  auto probe = stacked ? arcade::make_stacked_game(game, 1, 2)
                       : arcade::make_game(game, 1);
  util::Rng rng(4);
  auto agent = nn::build_zoo_agent("Vanilla", probe->obs_spec(),
                                   probe->num_actions(), rng);

  std::cout << "training on " << game << " for " << frames << " frames"
            << (stacked ? " (2-frame stack)" : "") << "...\n";
  std::vector<std::unique_ptr<arcade::Env>> envs;
  for (int i = 0; i < 16; ++i) {
    envs.push_back(stacked
                       ? arcade::make_stacked_game(game, 100 + static_cast<std::uint64_t>(i), 2)
                       : arcade::make_game(game, 100 + static_cast<std::uint64_t>(i)));
  }
  arcade::VecEnv vec(std::move(envs));
  rl::A2cConfig cfg;
  cfg.num_envs = 16;
  cfg.lr_start = 2e-3;
  cfg.lr_end = 2e-4;
  cfg.loss = rl::no_distill_coefficients();
  rl::A2cTrainer trainer(*agent.net, vec, cfg);
  trainer.train(frames);

  // Play one greedy episode, printing every 4th frame.
  auto env = stacked ? arcade::make_stacked_game(game, 777, 2)
                     : arcade::make_game(game, 777);
  auto raw_view = arcade::make_game(game, 777);  // unstacked twin for display
  tensor::Tensor obs = env->reset();
  tensor::Tensor view = raw_view->reset();
  double score = 0.0;
  int t = 0;
  bool done = false;
  while (!done && t < 200) {
    const auto ac = agent.net->forward(obs);
    const int action = static_cast<int>(tensor::argmax(ac.logits));
    const auto r = env->step(action);
    const auto rv = raw_view->step(action);
    score += r.reward;
    done = r.done;
    obs = r.obs;
    view = rv.obs;
    if (t % 4 == 0) {
      std::cout << "t=" << t << " action=" << action << " score=" << score
                << "\n"
                << arcade::render_ascii(view);
    }
    ++t;
  }
  std::cout << "episode finished after " << t << " steps, score " << score
            << "\n";
  return 0;
}
