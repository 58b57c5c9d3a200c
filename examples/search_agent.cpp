// DNAS-for-DRL walk-through (the paper's core algorithmic contribution):
// search an agent architecture on one game with the AC-distillation-
// stabilized supernet, then report the derived architecture and its test
// score after training from scratch.
//
//   ./examples/search_agent [game] [search_frames] [train_frames]
#include <iostream>
#include <string>

#include "core/pipeline.h"
#include "util/config.h"

using namespace a3cs;

int main(int argc, char** argv) {
  const std::string game = argc > 1 ? argv[1] : "Catch";
  const std::int64_t search_frames =
      util::scaled_steps(util::count_arg(argc, argv, 2, "frames", 12000));
  const std::int64_t train_frames =
      util::scaled_steps(util::count_arg(argc, argv, 3, "frames", 12000));

  // Teacher for AC-distillation (cached across runs).
  rl::TeacherConfig teacher_cfg;
  teacher_cfg.train_frames = util::scaled_steps(20000);
  auto teacher = rl::get_or_train_teacher(game, teacher_cfg);

  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = 6;  // laptop-scale search space (9^6)
  cfg.a2c.loss = rl::paper_distill_coefficients();
  cfg.hardware_aware = false;  // pure agent search in this example
  core::CoSearchEngine engine(game, cfg, teacher.get());

  std::cout << "searching on " << game << " for " << search_frames
            << " frames over a 9^" << cfg.supernet.space.num_cells
            << " architecture space...\n";
  const auto result = engine.run(search_frames, [&](std::int64_t f) {
    std::cout << "  search frames " << f
              << " (tau = " << engine.supernet().temperature() << ")\n";
  }, search_frames / 4);

  std::cout << "derived architecture: " << result.arch.to_string() << "\n";

  auto trained = core::train_derived_agent(game, result.arch,
                                           cfg.supernet.space, train_frames,
                                           cfg.a2c, teacher.get(), 77);
  std::cout << "derived net: " << nn::network_macs(trained.specs)
            << " MACs, " << nn::network_params(trained.specs) << " params\n";

  const auto eval = rl::evaluate_agent(*trained.net, game);
  std::cout << "test score: " << eval.mean_score << " +/- " << eval.stddev
            << "\n";
  return 0;
}
