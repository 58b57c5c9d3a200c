// `train_eval`: pipeline phases 2 and 4 on a fixed derived architecture.
// The agent is trained with rl::A2cTrainer (the co-search workload's A2C
// configuration and teacher) and scored with rl::evaluate_agent on no-op
// start episodes. The run is a sequence of cycles, each 50 A2C iterations
// (2000 frames) then kEvalEpisodes evaluation episodes, until the time is up,
// so every run at a seed trains and scores the same first cycle.
//
// One step is one A2C iteration, timed from the trainer's per-iteration
// callback; items are training frames plus evaluation agent steps (batch-1
// policy forwards, counted by a pass-through backbone).
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "arcade/games.h"
#include "bench.h"
#include "child.h"
#include "layers.h"
#include "nas/arch.h"
#include "rl/a2c.h"
#include "rl/eval.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr const char* kArch = "conv3-conv3-ir3x3-conv3-conv3-skip";
constexpr std::int64_t kTrainFramesPerCycle = 2000;
constexpr int kEvalEpisodes = 4;
constexpr std::int64_t kFramesPerIter = 40;  // 8 envs x 5 steps
constexpr int kThreads = 2;

// Forwards to the derived backbone, counting the rows it is asked for.
class CountingBackbone : public nn::Module {
 public:
  explicit CountingBackbone(std::unique_ptr<nn::Module> inner)
      : inner_(std::move(inner)) {}
  nn::Tensor forward(const nn::Tensor& x) override {
    rows_ += x.shape()[0];
    return inner_->forward(x);
  }
  nn::Tensor backward(const nn::Tensor& grad_out) override {
    return inner_->backward(grad_out);
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    inner_->collect_parameters(out);
  }
  std::string name() const override { return inner_->name(); }
  std::int64_t rows() const { return rows_; }

 private:
  std::unique_ptr<nn::Module> inner_;
  std::int64_t rows_ = 0;
};

// Everything setup builds: teacher, agent, envs.
struct Setup {
  std::unique_ptr<nn::ActorCriticNet> teacher;
  std::unique_ptr<nn::ActorCriticNet> net;
  CountingBackbone* backbone = nullptr;
  std::unique_ptr<arcade::VecEnv> envs;
  rl::A2cConfig a2c;
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  s.teacher = make_teacher();
  const auto probe = arcade::make_game(kGame, 1);
  util::Rng rng(derive_seed(seed, 11));
  nas::SearchSpaceConfig space;
  space.num_cells = 6;
  auto bb = nas::build_derived_backbone(nas::DerivedArch::from_string(kArch),
                                        probe->obs_spec(), space, rng);
  auto counting = std::make_unique<CountingBackbone>(std::move(bb.module));
  s.backbone = counting.get();
  s.net = std::make_unique<nn::ActorCriticNet>(
      std::move(counting), bb.feature_dim, probe->num_actions(), rng);
  s.envs = std::make_unique<arcade::VecEnv>(kGame, s.a2c.num_envs,
                                            derive_seed(seed, 12));
  s.a2c.loss = rl::paper_distill_coefficients();
  s.a2c.seed = derive_seed(seed, 13);
  return s;
}

// rl::A2cTrainer::train driven from here with spans: the rollout (policy
// forward / env step) and the rl::a2c_update call inside each iteration.
class TracedTrainer {
 public:
  TracedTrainer(nn::ActorCriticNet& net, arcade::VecEnv& envs,
                const rl::A2cConfig& cfg, nn::ActorCriticNet* teacher)
      : net_(net),
        cfg_(cfg),
        teacher_(teacher),
        rollout_(envs, util::Rng(cfg.seed)),
        opt_(cfg.lr_start) {}

  template <typename OnStep>
  void train(std::int64_t total_frames, OnStep&& on_step) {
    const nn::LinearLrSchedule schedule(
        cfg_.lr_start, cfg_.lr_end,
        static_cast<std::int64_t>(cfg_.lr_hold_frac *
                                  static_cast<double>(total_frames)),
        total_frames);
    while (rollout_.frames() < total_frames) {
      rl::UpdateStats stats;
      {
        ScopedSpan span("core.iteration");
        opt_.set_learning_rate(schedule.at(rollout_.frames()));
        const rl::Rollout rollout = rollout_.collect(net_, cfg_.rollout_len);
        ScopedSpan update("rl.update");
        stats = rl::a2c_update(net_, rollout, cfg_, opt_, teacher_);
      }
      on_step(rollout_.frames(), stats);
    }
  }

 private:
  nn::ActorCriticNet& net_;
  const rl::A2cConfig cfg_;
  nn::ActorCriticNet* teacher_;
  TracedRollout rollout_;
  nn::RmsProp opt_;
};

struct Cycles {
  std::vector<double> step_ms;
  // Items of each cycle at its end: its training and evaluation halves run
  // at very different rates, so only whole cycles are comparable.
  std::vector<Mark> marks;
  double items = 0.0;  // training frames + evaluation agent steps
  double busy_s = 0.0;
  std::int64_t attempted = 0, failed = 0;
  std::string first_params;          // digest of the weights after cycle 0
  std::vector<double> first_scores;  // per episode, cycle 0
  bool scores_finite = true;
};

// Runs train/eval cycles until `seconds` have passed. `train_to(frames,
// on_step)` trains up to a cumulative frame count, calling on_step(frames,
// stats) after every A2C iteration.
template <typename TrainTo>
Cycles run_cycles(Setup& s, std::uint64_t seed, double seconds,
                  TrainTo&& train_to) {
  Cycles c;
  const Clock::time_point t0 = Clock::now();
  for (int cycle = 0; cycle == 0 || seconds_since(t0) < seconds; ++cycle) {
    Clock::time_point last = Clock::now();
    std::int64_t frames_before = (cycle * kTrainFramesPerCycle);
    const double items_before = c.items;
    train_to((cycle + 1) * kTrainFramesPerCycle,
             [&](std::int64_t frames, const rl::UpdateStats& u) {
               const Clock::time_point now = Clock::now();
               c.step_ms.push_back(ms_between(last, now));
               c.items += static_cast<double>(frames - frames_before);
               last = now;
               frames_before = frames;
               ++c.attempted;
               if (u.skipped || !std::isfinite(u.loss.total)) ++c.failed;
             });
    if (cycle == 0) {
      std::ostringstream params;
      s.net->save_params(params);
      c.first_params = digest_hex(params.str());
    }
    for (int ep = 0; ep < kEvalEpisodes; ++ep) {
      rl::EvalConfig eval;
      eval.episodes = 1;
      eval.seed = derive_seed(seed, 1000 + cycle * kEvalEpisodes + ep);
      const std::int64_t rows0 = s.backbone->rows();
      double score = 0.0;
      {
        ScopedSpan span("rl.eval_episode");
        score = rl::evaluate_agent(*s.net, kGame, eval).mean_score;
      }
      c.items += static_cast<double>(s.backbone->rows() - rows0);
      ++c.attempted;
      if (!std::isfinite(score)) {
        ++c.failed;
        c.scores_finite = false;
      }
      if (cycle == 0) c.first_scores.push_back(score);
    }
    c.marks.push_back(Mark{seconds_since(t0), c.items - items_before});
  }
  c.busy_s = seconds_since(t0);
  return c;
}

// The first cycle's trained weights (to the bit) and its eval scores.
std::string first_cycle_digest(const Cycles& c) {
  std::string text = c.first_params;
  for (const double v : c.first_scores) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "|%.17g", v);
    text += buf;
  }
  return digest_hex(text);
}

}  // namespace

Outcome run_train_eval(const Options& opt) {
  Outcome out;
  util::ThreadPool::set_global_threads(kThreads);
  if (opt.setup_probe) {
    // A cold start up to where the timed run begins.
    Setup s = make_setup(opt.seed);
    rl::A2cTrainer trainer(*s.net, *s.envs, s.a2c, s.teacher.get());
    report_probe_ready();
    return out;
  }
  out.metrics["setup_s"] = median_setup_launch_s(opt);

  Setup s = make_setup(opt.seed);

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Cycles timed;
  {
    rl::A2cTrainer trainer(*s.net, *s.envs, s.a2c, s.teacher.get());
    timed = run_cycles(s, opt.seed, untraced_s,
                       [&](std::int64_t frames, auto&& on_step) {
                         trainer.train(
                             frames,
                             [&](std::int64_t f) {
                               on_step(f, trainer.last_update());
                             },
                             kFramesPerIter);
                       });
  }
  add_step_metrics(out, timed.step_ms, timed.marks, timed.busy_s);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.attempted += timed.attempted;
  out.failed += timed.failed;

  const std::string digest = first_cycle_digest(timed);
  out.check(timed.scores_finite, "train_eval: non-finite eval score");
  out.check(digest_matches_record(
                opt, "train_eval-" + std::to_string(opt.seed), digest),
            "train_eval: first cycle differs from an earlier run at this seed");
  if (!opt.trace) return out;

  // Traced run on a fresh setup: its first cycle must reach the untraced
  // A2cTrainer's weights and scores exactly.
  Setup traced = make_setup(opt.seed);
  TracedTrainer trainer(*traced.net, *traced.envs, traced.a2c,
                        traced.teacher.get());
  TraceWindow window;
  window.begin();
  const Cycles cycles = run_cycles(
      traced, opt.seed, opt.seconds / 2,
      [&](std::int64_t frames, auto&& on_step) {
        trainer.train(frames, on_step);
      });
  window.end(out, opt.work_dir + "/trace-train_eval-" +
                      std::to_string(opt.seed) + ".json");
  out.check(first_cycle_digest(cycles) == digest,
            "train_eval: traced training diverges from rl::A2cTrainer");
  out.attempted += cycles.attempted;
  out.failed += cycles.failed;
  out.metrics["trace.items_per_s"] = cycles.items / cycles.busy_s;
  out.metrics["trace.untraced_items_per_s"] = out.metrics["items_per_s_mean"];
  return out;
}

}  // namespace perfbench
