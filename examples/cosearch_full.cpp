// The full A3C-S pipeline on one game: co-search agent + accelerator, train
// the derived agent with AC-distillation, search the deployment accelerator
// with DAS, and report (test score, FPS) against the FA3C-style baseline.
//
//   ./examples/cosearch_full [game] [--ckpt-dir <dir>] [--resume <dir>]
//                            [--guard=off|warn|heal]
//
// --ckpt-dir enables periodic + signal-triggered checkpointing of the
// co-search phase into <dir>; --resume additionally restores the newest
// valid checkpoint there before searching (see docs/CHECKPOINTING.md).
// A3CS_CKPT_* environment variables override both. --guard selects the
// training-health watchdog mode (default warn: observe and trace, never
// act; heal runs the skip/soften/rollback ladder — see docs/ROBUSTNESS.md);
// A3CS_GUARD* environment variables override it. A malformed knob, fault
// plan or flag prints one line and exits 2 before any work.
#include <iostream>
#include <string>

#include "accel/fa3c.h"
#include "core/pipeline.h"
#include "core/result_io.h"
#include "guard/policy.h"
#include "util/config.h"

using namespace a3cs;

int main(int argc, char** argv) try {
  // A malformed knob or fault plan fails here, not after the teacher trains.
  core::read_env_knobs();
  std::string game = "Pong";
  ckpt::CkptConfig ckpt_cfg;
  guard::GuardConfig guard_cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ckpt-dir" && i + 1 < argc) {
      ckpt_cfg.dir = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      ckpt_cfg.dir = argv[++i];
      ckpt_cfg.resume = true;
    } else if (arg.rfind("--guard=", 0) == 0) {
      guard_cfg.mode = guard::parse_guard_mode(arg.substr(8), "--guard");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n"
                << "usage: cosearch_full [game] [--ckpt-dir <dir>] "
                << "[--resume <dir>] [--guard=off|warn|heal]\n";
      return 2;
    } else {
      game = arg;
    }
  }

  rl::TeacherConfig teacher_cfg;
  teacher_cfg.train_frames = util::scaled_steps(20000);
  auto teacher = rl::get_or_train_teacher(game, teacher_cfg);

  core::PipelineConfig cfg;
  cfg.cosearch.supernet.space.num_cells = 6;
  cfg.cosearch.a2c.loss = rl::paper_distill_coefficients();
  cfg.search_frames = util::scaled_steps(15000);
  cfg.train_frames = util::scaled_steps(15000);
  cfg.final_das.iterations = 400;
  cfg.cosearch.ckpt = ckpt_cfg;
  cfg.cosearch.guard = guard_cfg;

  std::cout << "running the full A3C-S pipeline on " << game << "...\n";
  const auto result = run_a3cs_pipeline(game, cfg, teacher.get());

  std::cout << "\n=== A3C-S result on " << game << " ===\n";
  std::cout << "architecture : " << result.arch.to_string() << "\n";
  std::cout << "MACs         : " << nn::network_macs(result.specs) << "\n";
  std::cout << "test score   : " << result.test_score << "\n";
  std::cout << "FPS          : " << result.hw.fps << " (DSP "
            << result.hw.dsp_used << "/900, BRAM " << result.hw.bram_used
            << "/1090)\n";
  // FA3C-style baseline on the same predictor: Vanilla agent on a fixed
  // single-engine accelerator.
  const auto vanilla_specs =
      nn::zoo_model_specs("Vanilla", arcade::standard_obs_spec(), 4);
  accel::Predictor predictor;
  const auto fa3c = accel::fa3c_eval(vanilla_specs, predictor);
  std::cout << "FA3C-style baseline (Vanilla on fixed engine): " << fa3c.fps
            << " FPS -> A3C-S is " << result.hw.fps / fa3c.fps << "x\n";

  // Persist the searched design for later re-evaluation / retraining.
  core::SavedResult saved;
  saved.game = game;
  saved.arch = result.arch;
  saved.accelerator = result.accelerator;
  saved.test_score = result.test_score;
  saved.fps = result.hw.fps;
  const std::string out_path = "a3cs_result_" + game + ".txt";
  core::save_result(out_path, saved);
  std::cout << "saved searched design to " << out_path << "\n";
  return 0;
} catch (const util::InputError& e) {
  std::cerr << e.what() << "\n";
  return 2;
}
