// Supervised multi-shard co-search: a FleetSupervisor fork/execs N seeded
// CoSearchEngine shards (this same binary re-exec'd with --fleet-worker),
// assigns each a lambda / DSP-budget / seed, survives worker crashes and
// hangs via checkpoint-resume restarts, and merges every shard's Pareto
// points into one deterministic score/FPS/DSP frontier.
//
//   ./examples/cosearch_fleet [game] [--workers N] [--frames F] [--out DIR]
//       [--cells N] [--envs N] [--rollout N] [--seed S]
//       [--lambdas a,b,...] [--dsps a,b,...]
//       [--restarts N] [--backoff S] [--hb S] [--no-realloc]
//
// Lambda / DSP lists are cycled across shards; shard k searches with seed
// S + k*9973. A3CS_FLEET_* environment variables override supervision knobs
// and inject deterministic faults (docs/FLEET.md). A3CS_TRACE_PATH enables
// a supervisor trace plus per-shard traces at <out>/shard-K.trace.jsonl;
// A3CS_PROFILE_CHROME likewise gives each shard <out>/shard-K.chrome.json.
// A shard's respawn N >= 1 writes <out>/shard-K.iN.* instead.
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "accel/config_io.h"
#include "core/cosearch.h"
#include "core/result_io.h"
#include "fleet/supervisor.h"
#include "fleet/worker.h"
#include "obs/run_scope.h"
#include "util/atomic_file.h"
#include "util/config.h"

using namespace a3cs;

namespace {

std::string self_binary(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0;  // fallback: argv[0] works while cwd is unchanged
}

}  // namespace

int main(int argc, char** argv) try {
  if (fleet::is_worker_invocation(argc, argv)) {
    return fleet::worker_main(argc, argv);
  }
  // Resolve every knob the workers read before spawning any: a bad value
  // must fail here once, not burn every shard's restart budget.
  core::read_env_knobs();

  std::string game = "Catch";
  std::string out_dir = "a3cs_fleet_out";
  int workers = 2;
  std::int64_t frames = 320;
  std::uint64_t seed = 21;
  std::vector<std::string> lambdas = {"0.05"};
  std::vector<std::string> dsps = {"900"};
  fleet::FleetConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto num = [&](std::int64_t lo, std::int64_t hi) {
      return util::parse_int(arg, argv[++i], lo, hi);
    };
    const auto seconds = [&] {
      return util::parse_double(arg, argv[++i], 0, util::kDoubleMax);
    };
    if (arg == "--workers" && has_value) {
      workers = static_cast<int>(num(1, util::kIntMax));
    } else if (arg == "--frames" && has_value) {
      frames = num(1, util::kInt64Max);
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--cells" && has_value) {
      cfg.num_cells = static_cast<int>(num(1, util::kIntMax));
    } else if (arg == "--envs" && has_value) {
      cfg.num_envs = static_cast<int>(num(1, util::kIntMax));
    } else if (arg == "--rollout" && has_value) {
      cfg.rollout_len = static_cast<int>(num(1, util::kIntMax));
    } else if (arg == "--seed" && has_value) {
      seed = static_cast<std::uint64_t>(num(0, util::kInt64Max));
    } else if (arg == "--lambdas" && has_value) {
      lambdas = util::split(argv[++i], ',');
    } else if (arg == "--dsps" && has_value) {
      dsps = util::split(argv[++i], ',');
    } else if (arg == "--restarts" && has_value) {
      cfg.restart_budget = static_cast<int>(num(0, util::kIntMax));
    } else if (arg == "--backoff" && has_value) {
      cfg.backoff_base_s = seconds();
    } else if (arg == "--hb" && has_value) {
      cfg.heartbeat_timeout_s = seconds();
    } else if (arg == "--no-realloc") {
      cfg.reallocate_budget = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n"
                << "usage: cosearch_fleet [game] [--workers N] [--frames F] "
                << "[--out DIR] [--cells N] [--envs N] [--rollout N] "
                << "[--seed S] [--lambdas a,b,...] [--dsps a,b,...] "
                << "[--restarts N] [--backoff S] [--hb S] [--no-realloc]\n";
      return 2;
    } else {
      game = arg;
    }
  }
  if (lambdas.empty() || dsps.empty()) {
    std::cerr << "cosearch_fleet: need non-empty --lambdas/--dsps\n";
    return 2;
  }

  const obs::RunScope scope(obs::ObsConfig{}, "fleet");

  cfg.worker_binary = self_binary(argv[0]);
  cfg.game = game;
  cfg.out_dir = out_dir;
  for (int k = 0; k < workers; ++k) {
    fleet::ShardSpec spec;
    spec.shard = k;
    spec.seed = seed + static_cast<std::uint64_t>(k) * 9973;
    spec.lambda = util::parse_double("--lambdas", lambdas[k % lambdas.size()],
                                     0, util::kDoubleMax);
    spec.dsp_budget = static_cast<int>(
        util::parse_int("--dsps", dsps[k % dsps.size()], 1, util::kIntMax));
    spec.total_frames = frames;
    cfg.shards.push_back(spec);
  }
  cfg = cfg.with_env_overrides();

  fleet::FleetSupervisor supervisor(cfg, fleet::FleetFaultInjector::from_env());
  const fleet::FleetResult result = supervisor.run();

  const std::string frontier_path = out_dir + "/frontier.txt";
  util::atomic_write_file(frontier_path, result.frontier_text);

  std::cout << "=== fleet result (" << game << ", " << workers
            << " workers) ===\n";
  for (const fleet::ShardReport& r : result.shards) {
    std::cout << "shard " << r.shard << ": " << fleet::to_string(r.outcome)
              << " iter=" << r.last_iter << " restarts=" << r.restarts;
    if (!r.detail.empty()) std::cout << " (" << r.detail << ")";
    std::cout << "\n";
  }
  std::cout << "spawns=" << result.spawns << " restarts=" << result.restarts
            << " hb_timeouts=" << result.hb_timeouts
            << " drops=" << result.drops << " diverged=" << result.diverged
            << (result.stopped ? " (stopped early)" : "") << "\n";
  std::cout << "frontier: " << result.frontier.size() << " points -> "
            << frontier_path << "\n";
  for (const fleet::ParetoPoint& p : result.frontier) {
    std::cout << "  shard " << p.shard << " score=" << p.score
              << " fps=" << p.fps << " dsp=" << p.dsp << "\n";
  }

  if (!result.frontier.empty()) {
    const fleet::ParetoPoint& best = result.frontier.front();
    core::SavedResult saved;
    saved.game = game;
    saved.arch = nas::DerivedArch::from_string(best.arch);
    saved.accelerator = accel::decode_config(best.accel);
    saved.test_score = best.score;
    saved.fps = best.fps;
    saved.dsp = best.dsp;
    core::save_result(out_dir + "/best_result.txt", saved);
    std::cout << "saved best design to " << out_dir << "/best_result.txt\n";
  }

  return (result.done_count() > 0 || result.stopped) ? 0 : 1;
} catch (const util::InputError& e) {
  std::cerr << e.what() << "\n";
  return 2;
}
