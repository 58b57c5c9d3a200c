#include "core/cosearch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "arcade/games.h"
#include "ckpt/section_file.h"
#include "ckpt/signal.h"
#include "guard/fault.h"
#include "nn/module.h"
#include "obs/exec_stats.h"
#include "obs/metrics.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "obs/run_scope.h"
#include "obs/trace.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/config.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/state_io.h"

namespace a3cs::core {

using tensor::Tensor;

namespace {

std::unique_ptr<nas::Supernet> build_supernet(const std::string& game_title,
                                              const CoSearchConfig& cfg,
                                              nas::Supernet** raw) {
  auto probe = arcade::make_game(game_title, 1);
  util::Rng rng(cfg.seed);
  auto supernet =
      std::make_unique<nas::Supernet>(probe->obs_spec(), cfg.supernet, rng);
  *raw = supernet.get();
  return supernet;
}

// CRC over a network's serialized parameters: pins the teacher a checkpoint
// was taken against, so resuming with a different (e.g. retrained) teacher
// fails loudly instead of silently diverging.
std::uint32_t params_crc(nn::ActorCriticNet& net) {
  std::ostringstream oss;
  net.save_params(oss);
  const std::string bytes = oss.str();
  return util::crc32(bytes.data(), bytes.size());
}

}  // namespace

CoSearchEngine::CoSearchEngine(const std::string& game_title,
                               CoSearchConfig cfg, nn::ActorCriticNet* teacher)
    : cfg_(cfg),
      game_title_(game_title),
      envs_(game_title, cfg.a2c.num_envs, cfg.seed + 1),
      supernet_(nullptr),
      teacher_(teacher),
      collector_(envs_, util::Rng(cfg.seed + 2)),
      space_(cfg.num_chunks,
             /*num_groups=*/cfg.supernet.space.num_cells + 2),
      predictor_(cfg.budget),
      next_tau_decay_(cfg.tau_decay_every_frames),
      theta_opt_(cfg.a2c.lr_start),
      alpha_opt_(cfg.alpha_lr) {
  auto supernet = build_supernet(game_title, cfg_, &supernet_);
  const int feature_dim = supernet_->feature_dim();
  auto probe = arcade::make_game(game_title, 1);
  util::Rng rng(cfg_.seed + 3);
  net_ = std::make_unique<nn::ActorCriticNet>(std::move(supernet), feature_dim,
                                              probe->num_actions(), rng);
  das_ = std::make_unique<das::DasEngine>(space_, predictor_, cfg_.das);
  if (teacher_ == nullptr) {
    // Without a teacher the distillation terms must be off regardless of the
    // configured coefficients.
    cfg_.a2c.loss.distill_actor = 0.0;
    cfg_.a2c.loss.distill_critic = 0.0;
  }
}

double CoSearchEngine::apply_cost_penalty_to_alpha(accel::HwEval* eval_out) {
  A3CS_PROF_SCOPE("cost-penalty");
  // Eq. 8: the activated operator of each cell is charged the layer-wise
  // cycle count it incurs on the current optimal accelerator hw(phi*). The
  // single-path sample of the most recent (training) forward stands in for
  // the final network (Sec. IV-A's chicken-and-egg approximation).
  const std::vector<int> choices = supernet_->last_choices();
  const auto specs = supernet_->specs_for(choices);
  const accel::HwEval eval = das_->derive_eval(specs);
  double total_penalty = 0.0;
  for (int cell = 0; cell < supernet_->num_cells(); ++cell) {
    const double cycles = eval.group_cycles(specs, cell + 1);
    const double penalty = cfg_.lambda * cycles / cfg_.cost_norm_cycles;
    total_penalty += penalty;
    supernet_->cell(cell).alpha().add_grad(
        choices[static_cast<std::size_t>(cell)], static_cast<float>(penalty));
  }
  if (eval_out != nullptr) *eval_out = eval;
  return total_penalty;
}

IterStats CoSearchEngine::one_iteration(bool update_theta, bool update_alpha,
                                        bool heal) {
  A3CS_PROF_SCOPE("cosearch-iter");
  IterStats stats;
  guard::HealthSignals& sig = stats.health;
  guard::FaultInjector& faults = guard::FaultInjector::global();

  // (1) Rollout with the sampled single-path policy.
  rl::Rollout rollout;
  {
    A3CS_PROF_SCOPE("rollout");
    const auto t0 = std::chrono::steady_clock::now();
    if (faults.should_fire(guard::FaultKind::kStallEnv, iter_)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(faults.stall_ms()));
    }
    rollout = collector_.collect(*net_, cfg_.a2c.rollout_len);
    sig.rollout_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }
  double reward_sum = 0.0;
  std::int64_t reward_n = 0;
  for (const auto& step_rewards : rollout.rewards) {
    for (const double r : step_rewards) reward_sum += r;
    reward_n += static_cast<std::int64_t>(step_rewards.size());
  }
  sig.mean_reward = reward_n > 0 ? reward_sum / static_cast<double>(reward_n)
                                 : 0.0;

  // (2) Accelerator step phi -> phi' on the network sampled during the
  // rollout (Alg. 1 line "Update phi in Eq. 9").
  if (cfg_.hardware_aware) {
    A3CS_PROF_SCOPE("das-update");
    const auto specs = supernet_->specs_for(supernet_->last_choices());
    stats.das_cost = das_->step(specs, cfg_.das_steps_per_iter);
  }

  // (3) Task loss: forward the stacked rollout batch, compute head grads,
  // backprop through the supernet. This accumulates BOTH theta and alpha
  // gradients in one pass; which of them are applied is decided in step (5)
  // (both for one-level, alternating for bi-level).
  A3CS_PROF_SCOPE("a2c-update");
  rl::RolloutLoss task = rl::rollout_loss(*net_, rollout, cfg_.a2c, teacher_);
  stats.loss = task.stats;
  sig.value_abs_max = static_cast<double>(task.value_abs_max);
  if (faults.should_fire(guard::FaultKind::kInfLoss, iter_)) {
    // Poison both the scalar stats and the head gradients — exactly what a
    // real overflow inside the loss would hand the rest of the iteration.
    stats.loss.total = std::numeric_limits<double>::infinity();
    task.grads.dlogits.at(0) = std::numeric_limits<float>::infinity();
  }
  sig.loss_total = stats.loss.total;
  sig.loss_policy = stats.loss.policy;
  sig.loss_value = stats.loss.value;
  sig.entropy = stats.loss.entropy;

  net_->zero_grad();
  supernet_->zero_alpha_grads();
  {
    A3CS_PROF_SCOPE("backward");
    net_->backward(task.grads.dlogits, task.grads.dvalue);
  }

  // (4) Hardware-cost penalty on alpha (Eq. 8), using the choices of the
  // training forward.
  if (cfg_.hardware_aware && update_alpha) {
    stats.cost_penalty = apply_cost_penalty_to_alpha(&stats.hw);
    stats.hw_valid = true;
  }

  // (5) Parameter updates, guarded: the fused norm pass both feeds the
  // health monitor and (in heal mode) vetoes an update that would commit
  // non-finite values into the weights.
  auto params = net_->parameters();
  if (faults.should_fire(guard::FaultKind::kNanGrad, iter_) &&
      !params.empty() && params.front()->grad.numel() > 0) {
    params.front()->grad.at(0) = std::numeric_limits<float>::quiet_NaN();
  }
  const nn::NormStats grad_stats = nn::grad_norm_stats(params);
  sig.grad_norm = grad_stats.norm;
  sig.grad_finite = grad_stats.finite;

  const bool unsafe = !std::isfinite(stats.loss.total) || !grad_stats.finite;
  if (heal && unsafe) {
    nn::zero_gradients(params);
    auto alphas = supernet_->alpha_params();
    nn::zero_gradients(alphas);  // the poison backpropagated into alpha too
    stats.update_skipped = true;
  } else {
    if (update_theta) {
      nn::clip_grad_norm(params, static_cast<float>(cfg_.a2c.grad_clip));
      theta_opt_.step(params);
    }
    if (update_alpha) {
      auto alphas = supernet_->alpha_params();
      alpha_opt_.step(alphas);
    }
  }

  if (faults.should_fire(guard::FaultKind::kNanParam, iter_) &&
      !params.empty() && params.front()->value.numel() > 0) {
    // Persistent corruption: unlike a poisoned batch, a NaN WEIGHT survives
    // any number of skipped updates — only a rollback heals it. Injected
    // before the parameter-norm pass so the monitor flags it this iteration.
    params.front()->value.at(0) = std::numeric_limits<float>::quiet_NaN();
  }
  const nn::NormStats param_stats = nn::param_norm_stats(params);
  sig.param_norm = param_stats.norm;
  sig.param_finite = param_stats.finite;
  return stats;
}

void CoSearchEngine::save_checkpoint(ckpt::SectionWriter& writer) {
  namespace sio = util::sio;
  {
    std::ostream& out = writer.begin_section("meta");
    sio::put_string(out, game_title_);
    sio::put_u64(out, cfg_.seed);
    sio::put_i32(out, envs_.num_envs());
    sio::put_i32(out, supernet_->num_cells());
    sio::put_bool(out, cfg_.hardware_aware);
    sio::put_bool(out, cfg_.optimization == Optimization::kBiLevel);
    sio::put_bool(out, teacher_ != nullptr);
    if (teacher_ != nullptr && !teacher_crc_) {
      teacher_crc_ = params_crc(*teacher_);
    }
    sio::put_u32(out, teacher_crc_.value_or(0));
    sio::put_i64(out, iter_);
    sio::put_bool(out, alpha_turn_);
    sio::put_i64(out, next_tau_decay_);
    sio::put_i64(out, next_callback_);
    sio::put_i64(out, collector_.frames());
    sio::put_f64(out, cfg_.lambda);
    sio::put_i32(out, cfg_.budget.dsp);
    sio::put_f64(out, reward_ewma_);
    sio::put_bool(out, reward_ewma_init_);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("theta");
    net_->save_params(out);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("theta_opt");
    theta_opt_.save_state(out, net_->parameters());
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("alpha");
    std::vector<std::pair<std::string, Tensor>> named;
    for (nn::Parameter* p : supernet_->alpha_params()) {
      named.emplace_back(p->name, p->value);
    }
    tensor::write_tensors(out, named);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("alpha_opt");
    alpha_opt_.save_state(out, supernet_->alpha_params());
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("nas");
    supernet_->save_search_state(out);
    writer.end_section();
  }
  if (cfg_.hardware_aware) {
    std::ostream& out = writer.begin_section("das");
    das_->save_state(out);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("rollout");
    collector_.save_state(out);
    writer.end_section();
  }
}

void CoSearchEngine::restore_checkpoint(const ckpt::SectionReader& reader) {
  namespace sio = util::sio;
  // Meta first: reject checkpoints from a differently configured run before
  // touching any live state.
  auto meta = reader.stream("meta");
  A3CS_CHECK(sio::get_string(meta) == game_title_,
             "checkpoint restore: game title mismatch");
  A3CS_CHECK(sio::get_u64(meta) == cfg_.seed,
             "checkpoint restore: seed mismatch");
  A3CS_CHECK(sio::get_i32(meta) == envs_.num_envs(),
             "checkpoint restore: num_envs mismatch");
  A3CS_CHECK(sio::get_i32(meta) == supernet_->num_cells(),
             "checkpoint restore: num_cells mismatch");
  A3CS_CHECK(sio::get_bool(meta) == cfg_.hardware_aware,
             "checkpoint restore: hardware_aware mismatch");
  A3CS_CHECK(sio::get_bool(meta) ==
                 (cfg_.optimization == Optimization::kBiLevel),
             "checkpoint restore: optimization mode mismatch");
  const bool had_teacher = sio::get_bool(meta);
  const std::uint32_t teacher_crc = sio::get_u32(meta);
  A3CS_CHECK(had_teacher == (teacher_ != nullptr),
             "checkpoint restore: teacher presence mismatch");
  if (teacher_ != nullptr) {
    A3CS_CHECK(teacher_crc == params_crc(*teacher_),
               "checkpoint restore: teacher parameters differ from the ones "
               "the checkpoint was taken against");
  }
  const std::int64_t iter = sio::get_i64(meta);
  const bool alpha_turn = sio::get_bool(meta);
  const std::int64_t next_tau_decay = sio::get_i64(meta);
  const std::int64_t next_callback = sio::get_i64(meta);
  sio::get_i64(meta);  // frames (restored below via the rollout section)
  // Shard-identity fields: a fleet worker resuming under the wrong cost
  // weight or resource budget would silently walk a different trajectory.
  const double lambda = sio::get_f64(meta);
  A3CS_CHECK(lambda == cfg_.lambda, "checkpoint restore: lambda mismatch");
  A3CS_CHECK(sio::get_i32(meta) == cfg_.budget.dsp,
             "checkpoint restore: DSP budget mismatch");
  const double reward_ewma = sio::get_f64(meta);
  const bool reward_ewma_init = sio::get_bool(meta);

  {
    auto in = reader.stream("theta");
    net_->load_params(in);
  }
  {
    auto in = reader.stream("theta_opt");
    theta_opt_.load_state(in, net_->parameters());
  }
  {
    auto in = reader.stream("alpha");
    const auto named = tensor::read_tensors(in);
    auto alphas = supernet_->alpha_params();
    A3CS_CHECK(named.size() == alphas.size(),
               "checkpoint restore: alpha count mismatch");
    for (nn::Parameter* p : alphas) {
      bool found = false;
      for (const auto& [name, t] : named) {
        if (name != p->name) continue;
        A3CS_CHECK(t.numel() == p->value.numel(),
                   "checkpoint restore: alpha '" + name + "' shape mismatch");
        p->value = t;
        found = true;
        break;
      }
      A3CS_CHECK(found, "checkpoint restore: alpha '" + p->name + "' missing");
    }
  }
  {
    auto in = reader.stream("alpha_opt");
    alpha_opt_.load_state(in, supernet_->alpha_params());
  }
  {
    auto in = reader.stream("nas");
    supernet_->load_search_state(in);
  }
  if (cfg_.hardware_aware) {
    auto in = reader.stream("das");
    das_->load_state(in);
  }
  {
    auto in = reader.stream("rollout");
    collector_.load_state(in);
  }

  iter_ = iter;
  alpha_turn_ = alpha_turn;
  next_tau_decay_ = next_tau_decay;
  next_callback_ = next_callback;
  reward_ewma_ = reward_ewma;
  reward_ewma_init_ = reward_ewma_init;
}

std::int64_t CoSearchEngine::frames() const { return collector_.frames(); }

namespace {

// One per-iteration JSONL event: the per-term loss decomposition, rollout
// return, alpha/tau state, and the hardware-cost trajectory — everything the
// DNAS literature plots to diagnose co-search (in)stability.
void emit_iter_event(std::int64_t frames, double tau, double das_tau,
                     const IterStats& stats) {
  const guard::HealthSignals& sig = stats.health;
  auto ev = obs::trace_event("cosearch_iter");
  ev.kv("iter", sig.iter)
      .kv("frames", frames)
      .kv("mean_reward", sig.mean_reward)
      .kv("loss_total", stats.loss.total)
      .kv("loss_policy", stats.loss.policy)
      .kv("loss_value", stats.loss.value)
      .kv("entropy", stats.loss.entropy)
      .kv("loss_distill_actor", stats.loss.distill_actor)
      .kv("loss_distill_critic", stats.loss.distill_critic)
      .kv("tau", tau)
      .kv("das_tau", das_tau)
      .kv("das_cost", stats.das_cost)
      .kv("cost_penalty", stats.cost_penalty)
      .kv("grad_norm", sig.grad_norm)
      .kv("param_norm", sig.param_norm)
      .kv("value_abs_max", sig.value_abs_max);
  if (stats.update_skipped) ev.kv("update_skipped", true);
  for (std::size_t cell = 0; cell < stats.alpha_entropies.size(); ++cell) {
    ev.kv("alpha_H" + std::to_string(cell), stats.alpha_entropies[cell]);
  }
  if (!stats.alpha_entropies.empty()) {
    ev.kv("alpha_H_mean", sig.alpha_entropy_mean);
  }
  if (stats.hw_valid) {
    ev.kv("hw_cycles", stats.hw.ii_cycles)
        .kv("hw_fps", stats.hw.fps)
        .kv("hw_dsp", static_cast<std::int64_t>(stats.hw.dsp_used))
        .kv("hw_bram", stats.hw.bram_used)
        .kv("hw_feasible", stats.hw.feasible);
  }
}

constexpr std::initializer_list<double> kMsBuckets = {
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};

}  // namespace

// Monitor and ladder state are deliberately per-run and NOT checkpointed: a
// healthy run takes no guard actions, so bit-exact kill-and-resume is
// preserved, and a run restored after a crash starts with a clean escalation
// ladder (docs/ROBUSTNESS.md).
struct CoSearchEngine::RunState {
  const CoSearchConfig& cfg;
  std::int64_t total_frames;
  int trace_every;

  guard::GuardConfig guard_cfg = cfg.guard.with_env_overrides();
  guard::HealthMonitor monitor{guard_cfg.health};
  guard::GuardPolicy policy{guard_cfg};
  nn::LinearLrSchedule schedule{
      cfg.a2c.lr_start, cfg.a2c.lr_end,
      static_cast<std::int64_t>(cfg.a2c.lr_hold_frac *
                                static_cast<double>(total_frames)),
      total_frames};
  // Checkpointing: periodic (iteration and/or wall-clock cadence) plus a
  // final write on SIGINT/SIGTERM.
  ckpt::CkptConfig ckpt_cfg = cfg.ckpt.with_env_overrides();
  std::unique_ptr<ckpt::StopSignalGuard> stop_guard{};
  std::chrono::steady_clock::time_point last_ckpt =
      std::chrono::steady_clock::now();
  // Soften state: a multiplicative LR scale (theta and alpha) plus a Gumbel
  // temperature boost, in force until the cooldown window expires.
  double soften_scale = 1.0;
  std::int64_t soften_until = -1;
  // Health of the most recently evaluated iteration; stamps the trailer tag
  // of any checkpoint written at that boundary (guard off/warn and the
  // pre-first-iteration state count as healthy).
  bool last_iter_healthy = true;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& iters = reg.counter("cosearch.iterations");
  obs::Counter& frames = reg.counter("cosearch.frames");
  obs::Histogram& iter_ms = reg.histogram("cosearch.iter_ms", kMsBuckets);
  obs::Counter& warns = reg.counter("guard.verdicts.warn");
  obs::Counter& errors = reg.counter("guard.verdicts.error");
  obs::Counter& skips = reg.counter("guard.skips");
  obs::Counter& softens = reg.counter("guard.softens");
  obs::Counter& rollbacks = reg.counter("guard.rollbacks");
  obs::Counter& aborts = reg.counter("guard.aborts");
  obs::Gauge& grad_norm = reg.gauge("train.grad_norm");
  obs::Gauge& param_norm = reg.gauge("train.param_norm");
  obs::Counter& ckpt_writes = reg.counter("ckpt.writes");
  obs::Counter& ckpt_bytes = reg.counter("ckpt.bytes");
  obs::Counter& ckpt_restores = reg.counter("ckpt.restores");
  obs::Histogram& ckpt_write_ms = reg.histogram("ckpt.write_ms", kMsBuckets);
  obs::Histogram& ckpt_sync_ms = reg.histogram("ckpt.sync_ms", kMsBuckets);
};

CoSearchResult CoSearchEngine::run(std::int64_t total_frames,
                                   Callback callback,
                                   std::int64_t callback_every) {
  const obs::RunScope scope(cfg_.obs, "co-search");
  util::ThreadPool::set_global_threads(
      cfg_.exec.with_env_overrides().resolved_threads());
  obs::MetricsRegistry::global().gauge("exec.threads")
      .set(util::ThreadPool::global().threads());
  guard::FaultInjector::global().arm_from_env();
  RunState rs{cfg_, total_frames, scope.config().trace_every};
  obs::trace_event("cosearch_start")
      .kv("game", game_title_)
      .kv("threads", util::ThreadPool::global().threads())
      .kv("total_frames", total_frames)
      .kv("num_cells", supernet_->num_cells())
      .kv("hardware_aware", cfg_.hardware_aware)
      .kv("bi_level", cfg_.optimization == Optimization::kBiLevel)
      .kv("lambda", cfg_.lambda)
      .kv("seed", static_cast<std::int64_t>(cfg_.seed))
      .kv("guard", guard::guard_mode_name(rs.guard_cfg.mode))
      .kv("env", util::env_summary());

  // iter_ / alpha_turn_ are cumulative engine state (restore_checkpoint may
  // already have positioned them); only the callback cadence is per-run,
  // and a resumed checkpoint overrides it.
  next_callback_ = callback_every;
  bool stopped = false;
  CoSearchResult result;
  try {
    resume(rs);
    while (!stopped && collector_.frames() < total_frames) {
      const IterStats stats = iterate(rs);
      if (!respond_to_health(rs, stats)) continue;
      while (collector_.frames() >= next_tau_decay_) {
        supernet_->decay_temperature();
        next_tau_decay_ += cfg_.tau_decay_every_frames;
      }
      // The checkpoint is written BEFORE the user callback fires at the
      // same boundary, so a crash inside the callback resumes from a state
      // that has not advanced past it.
      stopped = checkpoint_cadence(rs);
      if (callback && callback_every > 0 &&
          collector_.frames() >= next_callback_) {
        callback(collector_.frames());
        next_callback_ += callback_every;
      }
    }
    result = finish_run();
  } catch (...) {
    // No commit outlives run(): closing the ring joins the one in flight,
    // and logs its error rather than throwing it over this exception.
    ckpt_.reset();
    throw;
  }
  ckpt_.reset();
  if (stopped) {
    A3CS_LOG(INFO) << "stop signal received; checkpointed at iteration "
                   << iter_ << " and exiting the search loop";
  }
  return result;
}

void CoSearchEngine::resume(RunState& rs) {
  if (!rs.ckpt_cfg.enabled()) return;
  ckpt_ = std::make_unique<ckpt::CheckpointManager>(
      rs.ckpt_cfg, util::ThreadPool::global().threads());
  rs.stop_guard = std::make_unique<ckpt::StopSignalGuard>();
  if (!rs.ckpt_cfg.resume) return;
  ckpt::SectionReader reader;
  int fallbacks = 0;
  const std::int64_t at = ckpt_->load_newest_valid(&reader, &fallbacks);
  if (at < 0) {
    A3CS_LOG(WARN) << "checkpoint resume requested but no valid "
                   << "checkpoint in " << rs.ckpt_cfg.dir
                   << "; starting fresh";
    return;
  }
  restore_checkpoint(reader);
  rs.ckpt_restores.inc();
  A3CS_LOG(INFO) << "resumed co-search from " << ckpt_->path_for(at)
                 << " (iteration " << iter_ << ", " << collector_.frames()
                 << " frames)";
  obs::trace_event("ckpt_restore")
      .kv("iter", iter_)
      .kv("frames", collector_.frames())
      .kv("bytes", static_cast<std::int64_t>(reader.total_bytes()))
      .kv("fallbacks", static_cast<std::int64_t>(fallbacks));
}

IterStats CoSearchEngine::iterate(RunState& rs) {
  const std::int64_t frames_before = collector_.frames();
  const auto iter_start = std::chrono::steady_clock::now();
  if (rs.soften_until >= 0 && iter_ >= rs.soften_until) {
    rs.soften_scale = 1.0;
    rs.soften_until = -1;
    alpha_opt_.set_learning_rate(cfg_.alpha_lr);
    A3CS_LOG(INFO) << "guard: soften cooldown expired at iteration " << iter_
                   << "; learning rates restored";
  }
  theta_opt_.set_learning_rate(rs.schedule.at(collector_.frames()) *
                               rs.soften_scale);
  const bool heal = rs.guard_cfg.mode == guard::GuardMode::kHeal;
  IterStats stats;
  if (cfg_.optimization == Optimization::kOneLevel) {
    stats = one_iteration(/*update_theta=*/true, /*update_alpha=*/true, heal);
  } else {
    // Bi-level (one-step approximation, as in DARTS-style NACoS): theta on
    // this rollout, alpha on the next, never both — the alpha gradient is
    // then taken at stale weights, which is exactly the bias the paper's
    // Sec. V-D ablation exposes.
    stats = one_iteration(/*update_theta=*/!alpha_turn_,
                          /*update_alpha=*/alpha_turn_, heal);
    alpha_turn_ = !alpha_turn_;
  }
  ++iter_;
  guard::HealthSignals& sig = stats.health;
  if (reward_ewma_init_) {
    reward_ewma_ = 0.9 * reward_ewma_ + 0.1 * sig.mean_reward;
  } else {
    reward_ewma_ = sig.mean_reward;
    reward_ewma_init_ = true;
  }
  rs.iters.inc();
  rs.frames.inc(collector_.frames() - frames_before);
  rs.iter_ms.record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - iter_start)
                        .count());
  rs.grad_norm.set(sig.grad_norm);
  rs.param_norm.set(sig.param_norm);

  sig.iter = iter_;
  stats.alpha_entropies = supernet_->alpha_entropies();
  if (!stats.alpha_entropies.empty()) {
    double sum = 0.0;
    for (const double h : stats.alpha_entropies) sum += h;
    sig.alpha_entropy_mean =
        sum / static_cast<double>(stats.alpha_entropies.size());
  }
  if (obs::trace_active() && iter_ % rs.trace_every == 0) {
    emit_iter_event(collector_.frames(), supernet_->temperature(),
                    das_->temperature(), stats);
  }
  return stats;
}

bool CoSearchEngine::respond_to_health(RunState& rs, const IterStats& stats) {
  if (rs.guard_cfg.mode == guard::GuardMode::kOff) return true;
  const guard::HealthReport report = rs.monitor.evaluate(stats.health);
  rs.last_iter_healthy = !report.has_error();
  if (!report.ok()) {
    for (const guard::HealthVerdict& v : report.verdicts) {
      (v.severity == guard::Severity::kError ? rs.errors : rs.warns).inc();
      obs::trace_event("guard_event")
          .kv("kind", "verdict")
          .kv("iter", iter_)
          .kv("check", guard::check_name(v.check))
          .kv("severity", guard::severity_name(v.severity))
          .kv("value", v.value)
          .kv("threshold", v.threshold)
          .kv("detail", v.detail);
    }
    A3CS_LOG(WARN) << "guard: iteration " << iter_
                   << " unhealthy: " << report.summary();
  }
  const guard::GuardAction action = rs.policy.decide(report);
  if (action != guard::GuardAction::kNone) {
    obs::trace_event("guard_event")
        .kv("kind", guard::guard_action_name(action))
        .kv("iter", iter_)
        .kv("streak", static_cast<std::int64_t>(rs.policy.error_streak()))
        .kv("rollbacks", static_cast<std::int64_t>(rs.policy.rollbacks()))
        .kv("detail", report.summary());
  }
  if (action == guard::GuardAction::kSkip) {
    // The actual veto already happened inside one_iteration (heal mode
    // zeroes a non-finite batch before the optimizer steps); the skip rung
    // only accounts for it here.
    rs.skips.inc();
  } else if (action == guard::GuardAction::kSoften) {
    soften(rs);
  } else if (action == guard::GuardAction::kRollback) {
    if (!rollback(rs)) {
      abort_run(rs, "no healthy checkpoint to roll back to: " +
                        report.summary());
    }
    return false;
  } else if (action == guard::GuardAction::kAbort) {
    abort_run(rs, report.summary());
  }
  return true;
}

void CoSearchEngine::soften(RunState& rs) {
  rs.softens.inc();
  rs.soften_scale *= rs.guard_cfg.soften_lr_scale;
  rs.soften_until = iter_ + rs.guard_cfg.soften_cooldown_iters;
  alpha_opt_.set_learning_rate(cfg_.alpha_lr * rs.soften_scale);
  const double tau =
      std::min(cfg_.supernet.tau_init,
               supernet_->temperature() * rs.guard_cfg.soften_tau_boost);
  supernet_->set_temperature(tau);
  A3CS_LOG(WARN) << "guard: soften at iteration " << iter_ << " (lr scale "
                 << rs.soften_scale << ", tau " << tau
                 << ", cooldown until iteration " << rs.soften_until << ")";
}

// Restores the newest healthy checkpoint and reseeds every sampler; false
// when there is none to restore.
bool CoSearchEngine::rollback(RunState& rs) {
  if (!ckpt_) return false;
  ckpt::SectionReader reader;
  int fallbacks = 0;
  const std::int64_t at = ckpt_->load_newest_valid(
      &reader, &fallbacks, /*require_healthy=*/true);
  if (at < 0) return false;
  const std::int64_t from_iter = iter_;
  restore_checkpoint(reader);
  // Stale tips newer than the restore point are by construction unhealthy
  // (or about to be shadowed); drop them so they can never win a later
  // newest-first scan.
  ckpt_->remove_newer_than(at);
  rs.policy.on_rollback();
  rs.monitor.reset();
  // Distinct reseed per rollback: replaying the restored state with its
  // restored RNG streams would deterministically walk into the same
  // divergence again.
  const std::uint64_t salt = 0x9E3779B97F4A7C15ULL *
                             static_cast<std::uint64_t>(rs.policy.rollbacks());
  collector_.reseed((cfg_.seed + 2) ^ salt);
  supernet_->reseed_sampler(cfg_.supernet.sample_seed ^ salt);
  if (cfg_.hardware_aware) das_->reseed(cfg_.das.seed ^ salt);
  rs.soften_scale = 1.0;
  rs.soften_until = -1;
  alpha_opt_.set_learning_rate(cfg_.alpha_lr);
  rs.last_iter_healthy = true;
  rs.rollbacks.inc();
  rs.ckpt_restores.inc();
  A3CS_LOG(WARN) << "guard: rolled back from iteration " << from_iter
                 << " to healthy checkpoint " << ckpt_->path_for(at)
                 << " (rollback " << rs.policy.rollbacks() << " of "
                 << rs.guard_cfg.max_rollbacks << ", reseeded)";
  obs::trace_event("guard_event")
      .kv("kind", "rollback_done")
      .kv("from_iter", from_iter)
      .kv("iter", iter_)
      .kv("fallbacks", static_cast<std::int64_t>(fallbacks))
      .kv("rollbacks", static_cast<std::int64_t>(rs.policy.rollbacks()));
  return true;
}

// Abort rung: dump the complete (diverged) engine state for post-mortem
// debugging, then surface the failure as a typed exception. The dump is
// tagged unhealthy so no resume path will ever restore from it.
void CoSearchEngine::abort_run(RunState& rs, const std::string& why) {
  rs.aborts.inc();
  std::string dump_path;
  if (ckpt_) {
    ckpt::SectionWriter dump;
    save_checkpoint(dump);
    dump.set_healthy(false);
    dump_path = rs.ckpt_cfg.dir + "/abort-dump.a3ck";
    dump.write(dump_path);
  }
  obs::trace_event("guard_event")
      .kv("kind", "abort_dump")
      .kv("iter", iter_)
      .kv("detail", why)
      .kv("dump", dump_path);
  A3CS_LOG(ERROR) << "guard: aborting co-search at iteration " << iter_
                  << ": " << why
                  << (dump_path.empty() ? std::string()
                                        : "; diagnostic dump at " + dump_path);
  throw guard::GuardAbort(
      "co-search aborted at iteration " + std::to_string(iter_) + ": " + why,
      iter_);
}

bool CoSearchEngine::checkpoint_cadence(RunState& rs) {
  if (!ckpt_) return false;
  const bool stopped = ckpt::stop_requested();
  const bool iter_due =
      rs.ckpt_cfg.every_iters > 0 && iter_ % rs.ckpt_cfg.every_iters == 0;
  const bool time_due =
      rs.ckpt_cfg.every_seconds > 0.0 &&
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    rs.last_ckpt)
              .count() >= rs.ckpt_cfg.every_seconds;
  if (stopped || iter_due || time_due) {
    write_checkpoint(rs, stopped ? "signal" : (iter_due ? "iters" : "seconds"));
  }
  return stopped;
}

// The loop thread takes the snapshot; the manager commits it (encode,
// tmp + fsync + rename, prune) while the next iterations run. The file holds
// the bytes a synchronous commit would write; only the moment they become
// durable moves, and the manager's barrier pins it where it matters.
void CoSearchEngine::write_checkpoint(RunState& rs, const char* reason) {
  ckpt_->commit_async(
      iter_,
      [&](ckpt::SectionWriter& snapshot) {
        save_checkpoint(snapshot);
        snapshot.set_healthy(rs.last_iter_healthy);
      },
      // Registry metrics outlive the run, so the job may reach them.
      [&writes = rs.ckpt_writes, &total_bytes = rs.ckpt_bytes,
       &write_ms = rs.ckpt_write_ms, &sync_ms = rs.ckpt_sync_ms, reason,
       iter = iter_, frames = collector_.frames(),
       healthy = rs.last_iter_healthy](
          const ckpt::CheckpointManager::CommitStats& commit) {
        writes.inc();
        total_bytes.inc(static_cast<std::int64_t>(commit.bytes));
        write_ms.record(commit.write_ms);
        sync_ms.record(commit.sync_ms);
        obs::trace_event("ckpt_write")
            .kv("iter", iter)
            .kv("frames", frames)
            .kv("bytes", static_cast<std::int64_t>(commit.bytes))
            .kv("write_ms", commit.write_ms)
            .kv("sync_ms", commit.sync_ms)
            .kv("reason", reason)
            .kv("healthy", healthy);
      });
  rs.last_ckpt = std::chrono::steady_clock::now();
  if (guard::FaultInjector::global().should_fire(guard::FaultKind::kTruncCkpt,
                                                 iter_)) {
    // Torn-tip fault: halve the committed file, simulating the disk filling
    // up / the machine dying mid-write in a world without the tmp+rename
    // protocol. load_newest_valid must fall back past it.
    std::error_code ec;
    ckpt_->tear_tip(ec);
    if (ec) {
      A3CS_LOG(WARN) << "fault injection: could not tear the checkpoint tip: "
                     << ec.message();
    }
  }
}

void CoSearchEngine::wait_for_checkpoint() {
  if (ckpt_) ckpt_->wait();
}

CoSearchResult CoSearchEngine::finish_run() {
  wait_for_checkpoint();
  CoSearchResult result;
  result.arch = supernet_->derive();
  result.frames = collector_.frames();
  const auto final_specs = supernet_->specs_for(result.arch.choices);
  if (cfg_.hardware_aware) {
    result.accelerator = das_->derive();
    result.hw_eval = predictor_.evaluate(final_specs, result.accelerator);
  }
  obs::record_exec_stats();
  obs::perf::record_work_metrics();
  obs::trace_event("cosearch_end")
      .kv("iters", iter_)
      .kv("frames", result.frames)
      .kv("arch", result.arch.to_string())
      .kv("hw_fps", result.hw_eval.fps)
      .kv("hw_dsp", static_cast<std::int64_t>(result.hw_eval.dsp_used))
      .kv("hw_feasible", result.hw_eval.feasible);
  return result;
}

void read_env_knobs() {
  (void)util::bench_scale();
  (void)util::ExecConfig{}.with_env_overrides();
  tensor::backend::select_from_env();
  (void)obs::ObsConfig{}.with_env_overrides();
  (void)ckpt::CkptConfig{}.with_env_overrides();
  (void)guard::GuardConfig{}.with_env_overrides();
  guard::FaultInjector().arm_from_env();
}

}  // namespace a3cs::core
