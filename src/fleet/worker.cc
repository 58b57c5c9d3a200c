#include "fleet/worker.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <unistd.h>

#include "accel/config_io.h"
#include "ckpt/manager.h"
#include "ckpt/signal.h"
#include "core/cosearch.h"
#include "core/result_io.h"
#include "fleet/protocol.h"
#include "guard/policy.h"
#include "rl/a2c.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::fleet {

namespace {

// Blocking full-line writer onto the supervisor pipe. Lines are shorter
// than PIPE_BUF, so each write is atomic; EINTR is retried. A failed write
// means the supervisor is gone — the shard hard-exits rather than search
// into the void (its checkpoint ring preserves the progress).
class PipeWriter {
 public:
  explicit PipeWriter(int fd) : fd_(fd) {}

  void line(const std::string& s) {
    const char* p = s.data();
    std::size_t left = s.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        std::_Exit(12);
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
};

core::CoSearchConfig make_config(const WorkerOptions& o) {
  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = o.num_cells;
  cfg.a2c.num_envs = o.num_envs;
  cfg.a2c.rollout_len = o.rollout_len;
  cfg.a2c.loss = rl::no_distill_coefficients();
  cfg.das.samples_per_iter = o.das_samples;
  cfg.tau_decay_every_frames = o.tau_decay_frames;
  cfg.seed = o.seed;
  cfg.lambda = o.lambda;
  cfg.budget.dsp = o.dsp_budget;
  cfg.ckpt.dir = o.ckpt_dir;
  cfg.ckpt.every_iters = o.ckpt_every;
  cfg.ckpt.keep = o.ckpt_keep;
  cfg.ckpt.resume = true;  // empty ring == fresh start; see file comment
  return cfg;
}

// The point describing the engine's CURRENT state: derived arch + derived
// accelerator + their predictor eval + the reward EWMA. Pure read of
// checkpointed state (derive/derive_eval do not perturb the search), so a
// resumed engine reproduces the dead incarnation's point byte-for-byte.
ParetoPoint make_point(const WorkerOptions& o, core::CoSearchEngine& engine) {
  ParetoPoint p;
  p.shard = o.shard;
  p.iter = engine.iterations();
  p.frames = engine.frames();
  p.score = engine.reward_ewma();
  const nas::DerivedArch arch = engine.supernet().derive();
  const auto specs = engine.supernet().specs_for(arch.choices);
  const accel::HwEval ev = engine.das_engine().derive_eval(specs);
  p.fps = ev.fps;
  p.dsp = ev.dsp_used;
  p.arch = arch.to_string();
  p.accel = accel::encode_config(engine.das_engine().derive());
  return p;
}

[[noreturn]] void hang_forever() {
  for (;;) {
    std::this_thread::sleep_for(std::chrono::hours(1));
  }
}

bool parse_flag(const std::string& arg, const std::string& value,
                WorkerOptions* o) {
  // Every number the supervisor writes is non-negative.
  const auto i32 = [&] {
    return static_cast<int>(util::parse_int(arg, value, 0, util::kIntMax));
  };
  const auto i64 = [&] {
    return util::parse_int(arg, value, 0, util::kInt64Max);
  };
  if (arg == "--shard") o->shard = i32();
  else if (arg == "--pipe-fd") o->pipe_fd = i32();
  else if (arg == "--game") o->game = value;
  else if (arg == "--cells") o->num_cells = i32();
  else if (arg == "--envs") o->num_envs = i32();
  else if (arg == "--rollout") o->rollout_len = i32();
  else if (arg == "--das-samples") o->das_samples = i32();
  else if (arg == "--tau-decay") o->tau_decay_frames = i64();
  else if (arg == "--frames") o->total_frames = i64();
  else if (arg == "--seed") o->seed = static_cast<std::uint64_t>(i64());
  else if (arg == "--lambda") {
    o->lambda = util::parse_double(arg, value, 0, util::kDoubleMax);
  }
  else if (arg == "--dsp") o->dsp_budget = i32();
  else if (arg == "--ckpt-dir") o->ckpt_dir = value;
  else if (arg == "--ckpt-every") o->ckpt_every = i32();
  else if (arg == "--ckpt-keep") o->ckpt_keep = i32();
  else if (arg == "--point-every") o->point_every = i64();
  else if (arg == "--result") o->result_path = value;
  else if (arg == "--kill-at") o->kill_at = i64();
  else if (arg == "--hang-at") o->hang_at = i64();
  else if (arg == "--diverge-at") o->diverge_at = i64();
  else return false;
  return true;
}

}  // namespace

bool is_worker_invocation(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fleet-worker") return true;
  }
  return false;
}

std::vector<std::string> worker_argv(const WorkerOptions& o) {
  std::vector<std::string> out = {"--fleet-worker"};
  const auto add = [&out](const char* flag, const std::string& v) {
    out.push_back(flag);
    out.push_back(v);
  };
  add("--shard", std::to_string(o.shard));
  add("--pipe-fd", std::to_string(o.pipe_fd));
  add("--game", o.game);
  add("--cells", std::to_string(o.num_cells));
  add("--envs", std::to_string(o.num_envs));
  add("--rollout", std::to_string(o.rollout_len));
  add("--das-samples", std::to_string(o.das_samples));
  add("--tau-decay", std::to_string(o.tau_decay_frames));
  add("--frames", std::to_string(o.total_frames));
  add("--seed", std::to_string(o.seed));
  add("--lambda", format_double(o.lambda));
  add("--dsp", std::to_string(o.dsp_budget));
  add("--ckpt-dir", o.ckpt_dir);
  add("--ckpt-every", std::to_string(o.ckpt_every));
  add("--ckpt-keep", std::to_string(o.ckpt_keep));
  add("--point-every", std::to_string(o.point_every));
  if (!o.result_path.empty()) add("--result", o.result_path);
  if (o.kill_at > 0) add("--kill-at", std::to_string(o.kill_at));
  if (o.hang_at > 0) add("--hang-at", std::to_string(o.hang_at));
  if (o.diverge_at > 0) add("--diverge-at", std::to_string(o.diverge_at));
  return out;
}

int worker_main(int argc, char** argv) try {
  core::read_env_knobs();
  WorkerOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fleet-worker") continue;
    if (i + 1 >= argc) throw util::InputError(arg, "", "a value");
    if (!parse_flag(arg, argv[++i], &o)) {
      throw util::InputError("fleet worker flag", arg, "a known flag");
    }
  }
  if (o.total_frames <= 0 || o.ckpt_dir.empty()) {
    std::fprintf(stderr,
                 "fleet worker: --frames and --ckpt-dir are required\n");
    return 2;
  }
  return run_fleet_worker(o);
} catch (const util::InputError& e) {
  std::fprintf(stderr, "fleet worker: %s\n", e.what());
  return 2;
}

int run_fleet_worker(const WorkerOptions& o) {
  // The supervisor owns the other pipe end; if it dies, writes fail and the
  // worker exits instead of taking a SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  ckpt::clear_stop();

  PipeWriter out(o.pipe_fd);
  out.line(format_heartbeat(o.shard, 0, 0));

  const core::CoSearchConfig cfg = make_config(o);
  core::CoSearchEngine engine(o.game, cfg, nullptr);
  const std::int64_t fpi =
      static_cast<std::int64_t>(cfg.a2c.num_envs) * cfg.a2c.rollout_len;

  // Probe the ring up front (run() will restore identically again): when the
  // shard is a restart, re-emit the restored boundary's point so nothing the
  // dead incarnation may have failed to deliver is lost (see file comment).
  {
    ckpt::CheckpointManager mgr(cfg.ckpt);
    ckpt::SectionReader reader;
    if (mgr.load_newest_valid(&reader) >= 0) {
      engine.restore_checkpoint(reader);
      if (engine.iterations() > 0) {
        out.line(format_point(make_point(o, engine)));
        out.line(format_heartbeat(o.shard, engine.iterations(),
                                  engine.frames()));
      }
    }
  }

  try {
    engine.run(
        o.total_frames,
        [&](std::int64_t frames) {
          const std::int64_t iter = frames / fpi;
          if (o.kill_at > 0 && iter >= o.kill_at) {
            std::_Exit(kExitKilled);  // simulated crash: no unwinding
          }
          if (o.hang_at > 0 && iter >= o.hang_at) {
            hang_forever();  // heartbeat stops; supervisor must SIGKILL
          }
          if (o.diverge_at > 0 && iter >= o.diverge_at) {
            throw guard::GuardAbort(
                "fleet fault injection: forced divergence", iter);
          }
          out.line(format_heartbeat(o.shard, engine.iterations(),
                                    engine.frames()));
          if (o.point_every > 0 && iter % o.point_every == 0) {
            // A point presumes its boundary's checkpoint is on disk: a
            // restart resumes from there and re-emits it.
            engine.wait_for_checkpoint();
            out.line(format_point(make_point(o, engine)));
          }
        },
        fpi);
  } catch (const guard::GuardAbort& e) {
    const std::int64_t at =
        e.iter() >= 0 ? e.iter() : engine.iterations();
    out.line(format_diverged(o.shard, at, e.what()));
    A3CS_LOG(ERROR) << "fleet worker " << o.shard << " diverged: "
                    << e.what();
    return kExitDiverged;
  }

  if (!o.result_path.empty()) {
    const ParetoPoint p = make_point(o, engine);
    core::SavedResult result;
    result.game = o.game;
    result.arch = nas::DerivedArch::from_string(p.arch);
    result.accelerator = accel::decode_config(p.accel);
    result.test_score = p.score;
    result.fps = p.fps;
    result.dsp = p.dsp;
    core::save_result(o.result_path, result);
  }
  out.line(format_done(o.shard, engine.iterations(), engine.frames()));
  return 0;
}

}  // namespace a3cs::fleet
