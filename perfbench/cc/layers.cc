#include "layers.h"

#include <filesystem>
#include <utility>

#include "alloc_count.h"
#include "arcade/games.h"
#include "nn/zoo.h"
#include "obs/profile.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {

std::unique_ptr<nn::ActorCriticNet> make_teacher() {
  const auto probe = arcade::make_game(kGame, 1);
  util::Rng rng(/*seed=*/7);
  return nn::build_zoo_agent("ResNet-20", probe->obs_spec(),
                             probe->num_actions(), rng)
      .net;
}

std::string fresh_dir(const Options& opt, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

rl::Rollout TracedRollout::collect(nn::ActorCriticNet& net, int length) {
  ScopedSpan span("rl.rollout");
  if (!started_) {
    current_obs_ = envs_.reset();
    started_ = true;
  }
  rl::Rollout out;
  out.obs.reserve(static_cast<std::size_t>(length));
  for (int t = 0; t < length; ++t) {
    out.obs.push_back(current_obs_);
    nn::AcOutput ac;
    {
      ScopedSpan fwd("nas.policy_fwd");
      ac = net.forward(current_obs_);
    }
    auto actions = rl::sample_actions(ac.logits, rng_);
    const arcade::VecStep* step = nullptr;
    {
      ScopedSpan env("arcade.step");
      step = &envs_.step(actions);
    }
    out.actions.push_back(std::move(actions));
    out.rewards.push_back(step->rewards);
    out.dones.emplace_back(step->dones.begin(), step->dones.end());
    current_obs_ = step->obs;
    frames_ += envs_.num_envs();
  }
  out.last_obs = current_obs_;
  return out;
}

namespace {

// Spans that sit inside one iteration: reported in ms (and allocations) per
// iteration.
constexpr const char* kIterationSpans[] = {
    "rl.rollout",  "nas.policy_fwd", "arcade.step",   "das.step",
    "nas.batch_fwd", "rl.loss",      "nn.teacher_fwd", "nas.backward",
    "accel.cost_penalty", "nn.optim", "guard.check", "rl.update"};
// Spans reported in ms per call.
constexpr const char* kPerCallSpans[] = {"ckpt.write", "rl.eval_episode"};
// Library profiler scopes that already exist, summed over threads.
constexpr std::pair<const char*, const char*> kScopes[] = {
    {"conv-fwd", "tensor.conv_fwd_ms"}, {"conv-bwd", "tensor.conv_bwd_ms"},
    {"gemm", "tensor.gemm_ms"},         {"im2col", "tensor.im2col_ms"},
    {"col2im", "tensor.col2im_ms"}};

}  // namespace

void TraceWindow::begin() {
  obs::Profiler::global().reset();
  obs::Profiler::set_enabled(true);
  const util::ThreadPool& pool = util::ThreadPool::global();
  parallel0_ = pool.regions_parallel();
  inline0_ = pool.regions_inline();
  alloc::set_counting(true);
  SpanRecorder::global().enable();
}

void TraceWindow::end(Outcome& out, const std::string& trace_path) {
  SpanRecorder& rec = SpanRecorder::global();
  rec.disable();
  alloc::set_counting(false);
  obs::Profiler::set_enabled(false);
  const util::ThreadPool& pool = util::ThreadPool::global();
  const std::int64_t parallel = pool.regions_parallel() - parallel0_;
  const std::int64_t inlined = pool.regions_inline() - inline0_;

  const auto totals = rec.totals();
  const auto find = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Total{} : it->second;
  };
  const SpanRecorder::Total iter = find("core.iteration");
  const double n = iter.calls > 0 ? static_cast<double>(iter.calls) : 1.0;
  auto& m = out.metrics;
  m["core.iteration_ms"] = iter.total_ms / n;
  m["core.unattributed_ms"] = iter.self_ms / n;
  m["core.unattributed_pct"] =
      iter.total_ms > 0.0 ? 100.0 * iter.self_ms / iter.total_ms : 0.0;
  for (const char* name : kIterationSpans) {
    const SpanRecorder::Total t = find(name);
    m[std::string(name) + "_ms"] = t.total_ms / n;
    m["mem.allocs." + std::string(name)] = static_cast<double>(t.allocs) / n;
    m["mem.bytes." + std::string(name)] = static_cast<double>(t.bytes) / n;
  }
  for (const char* name : kPerCallSpans) {
    const SpanRecorder::Total t = find(name);
    m[std::string(name) + "_ms"] =
        t.calls > 0 ? t.total_ms / static_cast<double>(t.calls) : 0.0;
  }
  m["mem.allocs"] = static_cast<double>(iter.allocs) / n;
  m["mem.bytes"] = static_cast<double>(iter.bytes) / n;
  m["util.pool.parallel_regions"] = static_cast<double>(parallel) / n;
  m["util.pool.inline_regions"] = static_cast<double>(inlined) / n;

  std::map<std::string, double> scope_ms;
  for (const obs::Profiler::FlatNode& node :
       obs::Profiler::global().flatten()) {
    const std::size_t slash = node.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? node.path : node.path.substr(slash + 1);
    scope_ms[leaf] += static_cast<double>(node.total_ns) / 1e6;
  }
  for (const auto& [scope, metric] : kScopes) m[metric] = scope_ms[scope] / n;

  rec.write_chrome_trace(trace_path);
}

}  // namespace perfbench
