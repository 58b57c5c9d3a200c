// Fault-injection helper for the kill-and-resume checkpoint test
// (ckpt_resume_test.cc). Runs a tiny co-search with per-iteration
// checkpointing and can simulate
//   - a hard crash: _Exit(17) mid-callback at a given iteration (no
//     destructors, no flushes — exactly what a kill -9 leaves behind; with
//     more than one thread that iteration's checkpoint may still be in
//     flight on the engine's writer and is then lost with the process), or
//   - a graceful signal: raise(SIGTERM) at a given iteration, exercising the
//     StopSignalGuard -> final-checkpoint -> clean-return path.
// On normal completion it writes a canonical dump of the final search state
// (theta, alpha, full DAS state, counters) to <out_file>; the driver compares
// dumps byte-for-byte between an uninterrupted run and a crash+resume run.
//
// Usage:
//   ckpt_run <total_iters> <ckpt_dir|-> <out_file|-> <resume 0|1>
//            <die_at_iter|0> <sigterm_at_iter|0>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ckpt/signal.h"
#include "core/cosearch.h"
#include "rl/a2c.h"
#include "tensor/serialize.h"
#include "util/atomic_file.h"
#include "util/state_io.h"

using namespace a3cs;

int main(int argc, char** argv) {
  if (argc != 7) {
    std::cerr << "usage: ckpt_run <total_iters> <ckpt_dir|-> <out_file|-> "
                 "<resume 0|1> <die_at_iter|0> <sigterm_at_iter|0>\n";
    return 2;
  }
  const long long total_iters = std::atoll(argv[1]);
  const std::string ckpt_dir = argv[2];
  const std::string out_file = argv[3];
  const bool resume = std::atoi(argv[4]) != 0;
  const long long die_at = std::atoll(argv[5]);
  const long long sigterm_at = std::atoll(argv[6]);

  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = 3;
  cfg.a2c.num_envs = 2;
  cfg.a2c.rollout_len = 4;
  cfg.a2c.loss = rl::no_distill_coefficients();
  cfg.das.samples_per_iter = 2;
  cfg.tau_decay_every_frames = 64;
  if (ckpt_dir != "-") {
    cfg.ckpt.dir = ckpt_dir;
    cfg.ckpt.every_iters = 1;
    cfg.ckpt.keep = 3;
    cfg.ckpt.resume = resume;
  }
  const long long frames_per_iter =
      static_cast<long long>(cfg.a2c.num_envs) * cfg.a2c.rollout_len;

  ckpt::clear_stop();
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  engine.run(
      total_iters * frames_per_iter,
      [&](std::int64_t frames) {
        const long long iter = frames / frames_per_iter;
        if (die_at > 0 && iter >= die_at) {
          std::_Exit(17);  // simulated crash: no unwinding, no flushing
        }
        if (sigterm_at > 0 && iter >= sigterm_at) {
          std::raise(SIGTERM);
        }
      },
      frames_per_iter);

  if (out_file != "-") {
    std::ostringstream oss;
    engine.net().save_params(oss);
    for (auto* p : engine.supernet().alpha_params()) {
      tensor::write_tensor(oss, p->value);
    }
    engine.das_engine().save_state(oss);
    util::sio::put_i64(oss, engine.iterations());
    util::sio::put_f64(oss, engine.supernet().temperature());
    util::atomic_write_file(out_file, oss.str());
  }
  return 0;
}
