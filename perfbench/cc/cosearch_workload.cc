// `cosearch`: core::CoSearchEngine::run on Catch with cosearch_full's
// configuration (6 cells, paper distillation coefficients, hardware-aware,
// one-level), 8 envs x 5-step rollouts, an untrained zoo ResNet-20 teacher
// built from a fixed seed, and a checkpoint every 5 iterations into a fresh
// directory. One step is one co-search iteration, timed from the run()
// callback that fires every 40 frames.
//
// The traced run drives the same iteration itself (TracedSearch below): the
// same layer calls in the same order on the engine's own supernet, DAS
// engine and teacher, each wrapped in a span. A fidelity check shows the
// replica reaches the engine's exact state after the first iterations.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "accel/config_io.h"
#include "bench.h"
#include "child.h"
#include "ckpt/manager.h"
#include "core/cosearch.h"
#include "guard/health.h"
#include "layers.h"
#include "obs/metrics.h"
#include "spans.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr std::int64_t kFramesPerIter = 40;  // 8 envs x 5 steps
// The search is bounded by the clock, not by frames; this only fixes the
// learning-rate schedule (which stays in its constant phase).
constexpr std::int64_t kSearchFrames = 1'000'000'000;
constexpr int kCheckIters = 4;  // determinism / fidelity check length
constexpr int kCkptEvery = 5;
constexpr int kThreads = 2;

core::CoSearchConfig make_config(std::uint64_t seed, int threads,
                                 const std::string& ckpt_dir) {
  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = 6;
  cfg.a2c.loss = rl::paper_distill_coefficients();
  cfg.seed = derive_seed(seed, 1);
  cfg.supernet.sample_seed = derive_seed(seed, 2);
  cfg.das.seed = derive_seed(seed, 3);
  cfg.exec.threads = threads;
  cfg.ckpt.dir = ckpt_dir;
  cfg.ckpt.every_iters = kCkptEvery;
  return cfg;
}

// The state the determinism contract pins, to the bit: the supernet
// weights, the architecture logits (alpha), the complete DAS state (phi
// logits, their Adam moments, RNG, temperature, baseline, incumbent), the
// derived architecture and accelerator, and the reward EWMA.
std::string search_digest(core::CoSearchEngine& engine, double reward_ewma) {
  std::ostringstream state;
  engine.net().save_params(state);
  std::vector<std::pair<std::string, tensor::Tensor>> alphas;
  for (const nn::Parameter* p : engine.supernet().alpha_params()) {
    alphas.emplace_back(p->name, p->value);
  }
  tensor::write_tensors(state, alphas);
  engine.das_engine().save_state(state);
  char ewma[32];
  std::snprintf(ewma, sizeof(ewma), "%.17g", reward_ewma);
  state << engine.supernet().derive().to_string() << '|'
        << accel::encode_config(engine.das_engine().derive()) << '|' << ewma;
  return digest_hex(state.str());
}

struct StopRun {};

struct TimedSearch {
  std::vector<double> step_ms;
  std::vector<Mark> marks;
  std::int64_t frames = 0;
  std::int64_t failed = 0;
  double busy_s = 0.0;
  std::string digest;  // search_digest after kCheckIters iterations
};

// Runs the engine until `seconds` have passed or `max_iters` iterations are
// done. A step fails when the guard reports an error verdict (non-finite
// loss or gradients, divergence) or skips the update.
TimedSearch timed_search(core::CoSearchEngine& engine, double seconds,
                         std::int64_t max_iters) {
  obs::Counter& errors =
      obs::MetricsRegistry::global().counter("guard.verdicts.error");
  obs::Counter& skips = obs::MetricsRegistry::global().counter("guard.skips");
  std::int64_t errors0 = errors.value(), skips0 = skips.value();
  TimedSearch r;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last = t0;
  try {
    engine.run(
        kSearchFrames,
        [&](std::int64_t frames) {
          const Clock::time_point now = Clock::now();
          r.step_ms.push_back(ms_between(last, now));
          r.marks.push_back(Mark{ms_between(t0, now) / 1e3,
                                 static_cast<double>(frames - r.frames)});
          last = now;
          r.frames = frames;
          if (errors.value() != errors0 || skips.value() != skips0) ++r.failed;
          errors0 = errors.value();
          skips0 = skips.value();
          if (engine.iterations() == kCheckIters) {
            r.digest = search_digest(engine, engine.reward_ewma());
          }
          if (engine.iterations() >= max_iters ||
              seconds_since(t0) >= seconds) {
            throw StopRun{};
          }
        },
        kFramesPerIter);
  } catch (const StopRun&) {
  }
  r.busy_s = ms_between(t0, last) / 1e3;
  return r;
}

// One co-search iteration (CoSearchEngine::one_iteration plus the loop's
// guard check, temperature decay and checkpoint cadence) driven from here,
// one span per layer call. Borrows the engine's supernet, DAS engine and
// teacher; owns the envs, rollout RNG and optimizers, seeded exactly as the
// engine seeds its own.
class TracedSearch {
 public:
  TracedSearch(core::CoSearchEngine& engine, nn::ActorCriticNet* teacher,
               ckpt::CheckpointManager* ckpt)
      : engine_(engine),
        cfg_(engine.config()),
        teacher_(teacher),
        ckpt_(ckpt),
        envs_(kGame, cfg_.a2c.num_envs, cfg_.seed + 1),
        rollout_(envs_, util::Rng(cfg_.seed + 2)),
        theta_opt_(cfg_.a2c.lr_start),
        alpha_opt_(cfg_.alpha_lr),
        schedule_(cfg_.a2c.lr_start, cfg_.a2c.lr_end,
                  static_cast<std::int64_t>(cfg_.a2c.lr_hold_frac *
                                            static_cast<double>(kSearchFrames)),
                  kSearchFrames),
        monitor_(cfg_.guard.health),
        next_tau_decay_(cfg_.tau_decay_every_frames) {
    util::ThreadPool::set_global_threads(cfg_.exec.threads);
  }

  // Returns false when the iteration failed (guard error verdict).
  bool iteration();

  double reward_ewma() const { return reward_ewma_; }
  std::int64_t frames() const { return rollout_.frames(); }
  std::int64_t ckpt_bytes() const { return ckpt_bytes_; }
  std::int64_t ckpt_writes() const { return ckpt_writes_; }

 private:
  core::CoSearchEngine& engine_;
  const core::CoSearchConfig cfg_;
  nn::ActorCriticNet* teacher_;
  ckpt::CheckpointManager* ckpt_;
  arcade::VecEnv envs_;
  TracedRollout rollout_;
  nn::RmsProp theta_opt_;
  nn::Adam alpha_opt_;
  nn::LinearLrSchedule schedule_;
  guard::HealthMonitor monitor_;
  std::int64_t next_tau_decay_;
  std::int64_t iter_ = 0;
  double reward_ewma_ = 0.0;
  std::int64_t ckpt_bytes_ = 0, ckpt_writes_ = 0;
};

bool TracedSearch::iteration() {
  ScopedSpan iteration_span("core.iteration");
  nas::Supernet& sn = engine_.supernet();
  nn::ActorCriticNet& net = engine_.net();
  das::DasEngine& das = engine_.das_engine();

  theta_opt_.set_learning_rate(schedule_.at(rollout_.frames()));
  const Clock::time_point rollout_t0 = Clock::now();
  const rl::Rollout rollout = rollout_.collect(net, cfg_.a2c.rollout_len);
  const double rollout_ms = ms_between(rollout_t0, Clock::now());
  double reward_sum = 0.0;
  std::int64_t reward_n = 0;
  for (const auto& step_rewards : rollout.rewards) {
    for (const double r : step_rewards) reward_sum += r;
    reward_n += static_cast<std::int64_t>(step_rewards.size());
  }
  const double mean_reward =
      reward_n > 0 ? reward_sum / static_cast<double>(reward_n) : 0.0;

  {
    ScopedSpan span("das.step");
    das.step(sn.specs_for(sn.last_choices()), cfg_.das_steps_per_iter);
  }

  nn::AcOutput boot, ac;
  {
    ScopedSpan span("nas.batch_fwd");
    boot = net.forward(rollout.last_obs);
  }
  const tensor::Tensor batch_obs = rollout.stacked_obs();
  {
    ScopedSpan span("nas.batch_fwd");
    ac = net.forward(batch_obs);
  }
  rl::Targets targets;
  {
    ScopedSpan span("rl.loss");
    targets = rl::compute_targets(rollout.rewards, rollout.dones, ac.value,
                                  boot.value, cfg_.a2c.gamma,
                                  cfg_.a2c.advantage);
  }
  std::vector<int> actions;
  for (const auto& step_actions : rollout.actions) {
    actions.insert(actions.end(), step_actions.begin(), step_actions.end());
  }

  tensor::Tensor teacher_probs, teacher_values;
  {
    nn::AcOutput tea;
    {
      ScopedSpan span("nn.teacher_fwd");
      tea = teacher_->forward(batch_obs);
    }
    teacher_probs = tensor::Tensor(tea.logits.shape());
    tensor::softmax_rows(tea.logits, teacher_probs);
    teacher_values = tea.value;
  }

  rl::LossInputs in;
  in.logits = &ac.logits;
  in.values = &ac.value;
  in.actions = &actions;
  in.advantages = &targets.advantages;
  in.returns = &targets.returns;
  in.teacher_probs = &teacher_probs;
  in.teacher_values = &teacher_values;
  rl::HeadGradients grads;
  rl::LossStats loss;
  {
    ScopedSpan span("rl.loss");
    grads = rl::task_loss(in, cfg_.a2c.loss, &loss);
  }
  const double value_abs_max = static_cast<double>(ac.value.abs_max());

  net.zero_grad();
  sn.zero_alpha_grads();
  {
    ScopedSpan span("nas.backward");
    net.backward(grads.dlogits, grads.dvalue);
  }

  {
    // Eq. 8: charge each cell's sampled op its cycles on hw(phi*).
    ScopedSpan span("accel.cost_penalty");
    const std::vector<int> choices = sn.last_choices();
    const auto specs = sn.specs_for(choices);
    const accel::HwEval eval = das.derive_eval(specs);
    for (int cell = 0; cell < sn.num_cells(); ++cell) {
      const double cycles = eval.group_cycles(specs, cell + 1);
      const double penalty = cfg_.lambda * cycles / cfg_.cost_norm_cycles;
      sn.cell(cell).alpha().add_grad(
          choices[static_cast<std::size_t>(cell)], static_cast<float>(penalty));
    }
  }

  guard::HealthSignals sig;
  {
    ScopedSpan span("nn.optim");
    const auto params = net.parameters();
    const nn::NormStats grad_stats = nn::grad_norm_stats(params);
    nn::clip_grad_norm(params, static_cast<float>(cfg_.a2c.grad_clip));
    theta_opt_.step(params);
    alpha_opt_.step(sn.alpha_params());
    const nn::NormStats param_stats = nn::param_norm_stats(params);
    sig.grad_norm = grad_stats.norm;
    sig.grad_finite = grad_stats.finite;
    sig.param_norm = param_stats.norm;
    sig.param_finite = param_stats.finite;
  }
  ++iter_;
  reward_ewma_ =
      iter_ == 1 ? mean_reward : 0.9 * reward_ewma_ + 0.1 * mean_reward;

  bool healthy = true;
  {
    ScopedSpan span("guard.check");
    sig.iter = iter_;
    sig.loss_total = loss.total;
    sig.loss_policy = loss.policy;
    sig.loss_value = loss.value;
    sig.entropy = loss.entropy;
    sig.value_abs_max = value_abs_max;
    sig.mean_reward = mean_reward;
    sig.rollout_ms = rollout_ms;
    const std::vector<double> alpha_h = sn.alpha_entropies();
    double sum = 0.0;
    for (const double h : alpha_h) sum += h;
    sig.alpha_entropy_mean = sum / static_cast<double>(alpha_h.size());
    healthy = !monitor_.evaluate(sig).has_error();
  }

  while (rollout_.frames() >= next_tau_decay_) {
    sn.decay_temperature();
    next_tau_decay_ += cfg_.tau_decay_every_frames;
  }
  if (ckpt_ != nullptr && iter_ % kCkptEvery == 0) {
    ScopedSpan span("ckpt.write");
    ckpt::SectionWriter writer;
    engine_.save_checkpoint(writer);
    writer.set_healthy(healthy);
    ckpt_bytes_ += static_cast<std::int64_t>(ckpt_->commit(iter_, writer));
    ++ckpt_writes_;
  }
  return healthy && std::isfinite(loss.total);
}

}  // namespace

Outcome run_cosearch(const Options& opt) {
  Outcome out;
  if (opt.setup_probe) {
    // A cold start up to where the timed run begins.
    const std::string dir = fresh_dir(opt, "ckpt-probe");
    const std::unique_ptr<nn::ActorCriticNet> teacher = make_teacher();
    core::CoSearchEngine engine(kGame, make_config(opt.seed, kThreads, dir),
                                teacher.get());
    report_probe_ready();
    std::filesystem::remove_all(dir);
    return out;
  }
  out.metrics["setup_s"] = median_setup_launch_s(opt);

  const std::string ckpt_dir = fresh_dir(opt, "ckpt-cosearch");
  const std::unique_ptr<nn::ActorCriticNet> teacher = make_teacher();
  auto engine = std::make_unique<core::CoSearchEngine>(
      kGame, make_config(opt.seed, kThreads, ckpt_dir), teacher.get());

  // The untraced run: end-to-end metrics (half the time in a traced run,
  // where it is the baseline of the tracing overhead).
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const TimedSearch timed = timed_search(*engine, untraced_s, kSearchFrames);
  add_step_metrics(out, timed.step_ms, timed.marks, timed.busy_s);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.attempted += static_cast<std::int64_t>(timed.step_ms.size());
  out.failed += timed.failed;

  // Correctness: a feasible final accelerator; the same state after
  // kCheckIters iterations at 1 thread, and in every run at this seed.
  nas::Supernet& sn = engine->supernet();
  const accel::HwEval final_hw =
      engine->das_engine().derive_eval(sn.specs_for(sn.derive().choices));
  out.check(final_hw.feasible, "cosearch: final accelerator is infeasible");
  out.check(!timed.digest.empty(),
            "cosearch: run ended before the check point");
  {
    const std::string dir = fresh_dir(opt, "ckpt-cosearch-1t");
    core::CoSearchEngine serial(kGame, make_config(opt.seed, 1, dir),
                                teacher.get());
    const TimedSearch check = timed_search(serial, 1e9, kCheckIters);
    out.check(check.digest == timed.digest,
              "cosearch: state differs between 1 and 2 pool threads");
    std::filesystem::remove_all(dir);
  }
  out.check(digest_matches_record(opt, "cosearch-" + std::to_string(opt.seed),
                                  timed.digest),
            "cosearch: state differs from an earlier run at this seed");
  engine.reset();
  std::filesystem::remove_all(ckpt_dir);
  if (!opt.trace) return out;

  // Traced run. First show the replica iteration is the engine's: from a
  // fresh engine it must reach the same state after kCheckIters iterations.
  {
    core::CoSearchEngine fresh(kGame, make_config(opt.seed, kThreads, ""),
                               teacher.get());
    TracedSearch replica(fresh, teacher.get(), nullptr);
    for (int i = 0; i < kCheckIters; ++i) replica.iteration();
    out.check(search_digest(fresh, replica.reward_ewma()) == timed.digest,
              "cosearch: traced iteration diverges from CoSearchEngine::run");
  }
  // One engine iteration first, so the checkpoint the replica writes holds
  // optimizer moments and rollout state, as the engine's own do.
  const std::string warm_dir = fresh_dir(opt, "ckpt-warm");
  core::CoSearchEngine traced_engine(
      kGame, make_config(opt.seed, kThreads, warm_dir), teacher.get());
  timed_search(traced_engine, 1e9, 1);
  ckpt::CkptConfig ckpt_cfg;
  ckpt_cfg.dir = ckpt_dir;
  ckpt_cfg.every_iters = kCkptEvery;
  ckpt::CheckpointManager ckpt(ckpt_cfg);
  TracedSearch replica(traced_engine, teacher.get(), &ckpt);

  TraceWindow window;
  window.begin();
  const Clock::time_point t0 = Clock::now();
  std::int64_t iters = 0, failed = 0;
  while (seconds_since(t0) < opt.seconds / 2) {
    if (!replica.iteration()) ++failed;
    ++iters;
  }
  const double traced_s = seconds_since(t0);
  window.end(out, opt.work_dir + "/trace-cosearch-" +
                      std::to_string(opt.seed) + ".json");
  out.attempted += iters;
  out.failed += failed;
  out.metrics["ckpt.bytes"] =
      replica.ckpt_writes() > 0
          ? static_cast<double>(replica.ckpt_bytes()) /
                static_cast<double>(replica.ckpt_writes())
          : 0.0;
  out.metrics["trace.items_per_s"] =
      static_cast<double>(replica.frames()) / traced_s;
  out.metrics["trace.untraced_items_per_s"] = out.metrics["items_per_s_mean"];
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(warm_dir);
  return out;
}

}  // namespace perfbench
