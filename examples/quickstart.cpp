// Quickstart: train a small actor-critic DRL agent on a MiniArcade game with
// the A2C trainer, evaluate it with the paper's 30-episode null-op-start
// protocol, and print the learning progress.
//
//   ./examples/quickstart [game] [frames]
//
// Defaults: Catch, 12000 frames (scaled by A3CS_SCALE).
#include <iostream>
#include <string>

#include "arcade/games.h"
#include "arcade/vec_env.h"
#include "nn/zoo.h"
#include "rl/a2c.h"
#include "rl/eval.h"
#include "util/config.h"

using namespace a3cs;

int main(int argc, char** argv) {
  const std::string game = argc > 1 ? argv[1] : "Catch";
  const std::int64_t frames =
      util::scaled_steps(util::count_arg(argc, argv, 2, "frames", 12000));
  if (!arcade::is_known_game(game)) {
    std::cerr << "unknown game: " << game << "\navailable:";
    for (const auto& t : arcade::all_game_titles()) std::cerr << " " << t;
    std::cerr << "\n";
    return 1;
  }

  // Build the agent: a Vanilla (DQN-style) backbone + actor/critic heads.
  auto probe = arcade::make_game(game, 1);
  util::Rng rng(42);
  auto agent =
      nn::build_zoo_agent("Vanilla", probe->obs_spec(), probe->num_actions(),
                          rng);
  std::cout << "game: " << game << " | actions: " << probe->num_actions()
            << " | parameters: " << agent.net->num_parameters() << "\n";

  // Train with A2C (rollout length 5, gamma 0.99 — the paper's settings).
  arcade::VecEnv envs(game, 8, 7);
  rl::A2cConfig cfg;
  cfg.loss = rl::no_distill_coefficients();
  rl::A2cTrainer trainer(*agent.net, envs, cfg);

  std::cout << "training for " << frames << " frames...\n";
  trainer.train(frames, [&](std::int64_t f) {
    const auto scores = trainer.drain_episode_scores();
    double mean = 0.0;
    for (double s : scores) mean += s;
    if (!scores.empty()) mean /= static_cast<double>(scores.size());
    std::cout << "  frames " << f << ": " << scores.size()
              << " episodes, mean train score " << mean << "\n";
  }, frames / 5);

  // Evaluate with the paper's protocol.
  rl::EvalConfig eval_cfg;
  const auto result = rl::evaluate_agent(*agent.net, game, eval_cfg);
  std::cout << "test score over " << result.episodes
            << " episodes (null-op starts): " << result.mean_score << " +/- "
            << result.stddev << " [" << result.min_score << ", "
            << result.max_score << "]\n";
  return 0;
}
