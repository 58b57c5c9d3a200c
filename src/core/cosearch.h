// The A3C-S co-search engine (paper Alg. 1): joint differentiable search over
// DRL agent architectures (alpha, via the supernet) and accelerator designs
// (phi, via the DAS engine), trained with the AC-distillation-stabilized A2C
// objective. Each iteration:
//
//   1. roll out `rollout_len` steps with the single-path-sampled supernet
//      policy (Eq. 6),
//   2. update phi on the currently sampled network (Eq. 9, the "chicken-and-
//      egg" approximation of Sec. IV-A),
//   3. one A2C update of the supernet weights theta_pi/theta_v and the
//      architecture parameters alpha on L_task (Eq. 12, multi-path backward
//      Eq. 7), plus the layer-wise hardware-cost penalty on alpha (Eq. 8)
//      evaluated on hw(phi*),
//
// using one-level optimization by default; the bi-level ablation (Sec. V-D)
// alternates theta updates on one rollout and alpha updates on the next.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/hw_types.h"
#include "arcade/vec_env.h"
#include "ckpt/manager.h"
#include "das/das.h"
#include "guard/policy.h"
#include "nas/supernet.h"
#include "nn/actor_critic.h"
#include "obs/obs_config.h"
#include "rl/a2c.h"
#include "util/thread_pool.h"

namespace a3cs::core {

enum class Optimization { kOneLevel, kBiLevel };

struct CoSearchConfig {
  nas::SupernetConfig supernet;
  rl::A2cConfig a2c;            // distillation coefficients included
  das::DasConfig das;
  int num_chunks = 4;
  // Weight of L_cost in the alpha update (lambda of Eq. 4) applied to the
  // per-cell cycle count normalized by `cost_norm_cycles`.
  double lambda = 0.05;
  double cost_norm_cycles = 1e5;
  // Per-run FPGA resource envelope handed to the predictor (and through it
  // to the DAS engine's feasibility barrier). Fleet shards search under
  // different DSP budgets by varying this field (the paper's Table 2/3
  // multi-budget sweep); checkpoints pin it, so resuming a shard with the
  // wrong budget fails loudly instead of silently diverging.
  accel::FpgaBudget budget;
  int das_steps_per_iter = 1;
  double alpha_lr = 1e-3;       // paper: Adam, lr 1e-3
  // Temperature decay cadence in env frames (paper: x0.98 every 1e5 steps,
  // scaled to our shorter runs).
  std::int64_t tau_decay_every_frames = 2000;
  Optimization optimization = Optimization::kOneLevel;
  bool hardware_aware = true;   // false = pure NAS (Fig. 2's search schemes)
  std::uint64_t seed = 21;
  // Observability: JSONL run tracing + hierarchical profiling. Environment
  // variables (A3CS_TRACE_PATH, A3CS_PROFILE, ...) override these at run().
  obs::ObsConfig obs;
  // Execution: thread count of the global pool used by the kernels, the
  // vectorized envs, the top-K NAS backward and the DAS sweeps. A3CS_THREADS
  // overrides at run(); results are bit-exact at any value (see
  // docs/PERFORMANCE.md).
  util::ExecConfig exec;
  // Crash-safe checkpoint/resume. Environment variables (A3CS_CKPT_DIR,
  // A3CS_CKPT_EVERY_ITERS, ...) override these at run(); see
  // docs/CHECKPOINTING.md. A resumed run continues bit-exactly.
  ckpt::CkptConfig ckpt;
  // Training-health watchdog: per-iteration divergence detection plus the
  // skip -> soften -> rollback -> abort escalation ladder. A3CS_GUARD*
  // environment variables override these at run(); see docs/ROBUSTNESS.md.
  // The default mode (kWarn) observes, counts and traces but never acts, so
  // healthy runs are bit-identical with the guard on or off. The rollback
  // rung needs checkpointing enabled; without it the ladder degrades
  // straight to abort once the skip/soften budgets are spent.
  guard::GuardConfig guard;
};

// Everything one co-search iteration produced, for tracing/diagnostics.
struct IterStats {
  rl::LossStats loss;           // task-loss decomposition (Eq. 12 terms)
  guard::HealthSignals health;  // inputs to guard::HealthMonitor
  double cost_penalty = 0.0;    // total lambda-weighted alpha cost (Eq. 8)
  double das_cost = 0.0;        // last sampled L_cost of the DAS step
  bool hw_valid = false;        // hw filled (hardware-aware alpha turns only)
  accel::HwEval hw;             // predictor eval of hw(phi*) on sampled net
  bool update_skipped = false;  // heal mode dropped this batch's update
  std::vector<double> alpha_entropies;  // per-cell H(alpha) after the update
};

struct CoSearchResult {
  nas::DerivedArch arch;
  accel::AcceleratorConfig accelerator;
  accel::HwEval hw_eval;
  std::int64_t frames = 0;
};

class CoSearchEngine {
 public:
  // `teacher` may be null => no distillation (the Direct-NAS baseline).
  CoSearchEngine(const std::string& game_title, CoSearchConfig cfg,
                 nn::ActorCriticNet* teacher);

  // Runs the search for `total_frames` env frames. The callback (if set)
  // fires every `callback_every` frames — benches evaluate the supernet
  // inside it to record Fig. 2's score-evolution curves.
  using Callback = std::function<void(std::int64_t frames)>;
  CoSearchResult run(std::int64_t total_frames, Callback callback = nullptr,
                     std::int64_t callback_every = 0);

  nas::Supernet& supernet() { return *supernet_; }
  nn::ActorCriticNet& net() { return *net_; }
  das::DasEngine& das_engine() { return *das_; }
  const CoSearchConfig& config() const { return cfg_; }

  // Checkpointing: serializes the COMPLETE co-search state (supernet theta
  // and alpha, both optimizers' moments, the DAS engine, the Gumbel
  // temperature schedule position, every RNG stream, every env's episode
  // state and the iteration/frame counters) into `writer`; restore() makes
  // a freshly constructed engine continue a run bit-exactly. restore()
  // throws ckpt::CkptError / std::runtime_error on any mismatch between the
  // checkpoint and this engine's configuration.
  void save_checkpoint(ckpt::SectionWriter& writer);
  void restore_checkpoint(const ckpt::SectionReader& reader);

  // Iterations completed so far (survives checkpoint/restore).
  std::int64_t iterations() const { return iter_; }

  // Env frames consumed so far (survives checkpoint/restore).
  std::int64_t frames() const;

  // Exponentially weighted moving average of the per-iteration mean rollout
  // reward (decay 0.9), the cheap deterministic "score" axis of the fleet's
  // Pareto frontier. Checkpointed, so a resumed run re-reports the exact
  // value it had at the restored boundary.
  double reward_ewma() const { return reward_ewma_; }

 private:
  // Returns the total lambda-weighted penalty added to the alpha gradients;
  // `eval_out` (if non-null) receives the hw(phi*) evaluation it was
  // computed from.
  double apply_cost_penalty_to_alpha(accel::HwEval* eval_out);
  // `heal` = guard mode kHeal: a non-finite loss or gradient zeroes ALL
  // gradients (theta and alpha) and skips both optimizer steps, so one
  // poisoned batch cannot write NaNs into the weights.
  IterStats one_iteration(bool update_theta, bool update_alpha, bool heal);

  // The steps of run(), in loop order. RunState is the per-run (never
  // checkpointed) loop state: guard ladder, soften window, checkpoint
  // cadence and metric handles.
  struct RunState;
  void resume(RunState& rs);
  IterStats iterate(RunState& rs);
  // Returns false when the iteration was rolled back.
  bool respond_to_health(RunState& rs, const IterStats& stats);
  void soften(RunState& rs);
  bool rollback(RunState& rs);
  [[noreturn]] void abort_run(RunState& rs, const std::string& why);
  // Returns true when a stop signal ends the run.
  bool checkpoint_cadence(RunState& rs);
  void write_checkpoint(RunState& rs, const char* reason);
  CoSearchResult finish_run();

  CoSearchConfig cfg_;
  std::string game_title_;
  arcade::VecEnv envs_;
  nas::Supernet* supernet_;  // owned by net_'s backbone
  std::unique_ptr<nn::ActorCriticNet> net_;
  nn::ActorCriticNet* teacher_;
  rl::RolloutCollector collector_;
  accel::AcceleratorSpace space_;
  accel::Predictor predictor_;
  std::unique_ptr<das::DasEngine> das_;
  std::int64_t next_tau_decay_;

  // Loop state that checkpoints must capture (members, not run()-locals, so
  // save/restore can reach them).
  nn::RmsProp theta_opt_;
  nn::Adam alpha_opt_;
  std::int64_t iter_ = 0;
  bool alpha_turn_ = false;  // bi-level: alternate theta / alpha rollouts
  std::int64_t next_callback_ = 0;
  double reward_ewma_ = 0.0;
  bool reward_ewma_init_ = false;
};

}  // namespace a3cs::core
