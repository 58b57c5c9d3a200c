// Unit tests for the training-health watchdog (src/guard): the
// HealthMonitor's per-check verdicts, the GuardPolicy escalation ladder, the
// deterministic FaultInjector, the non-finite-aware fused norm passes in
// nn::Module, and the guarded rl::a2c_update. End-to-end recovery under
// injected faults (rollback from a healthy-tagged checkpoint, negative
// control with the guard off) lives in guard_recovery_test.cc.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "arcade/games.h"
#include "arcade/vec_env.h"
#include "guard/fault.h"
#include "guard/health.h"
#include "guard/policy.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "nn/zoo.h"
#include "rl/a2c.h"
#include "rl/rollout.h"
#include "util/config.h"
#include "util/rng.h"

namespace a3cs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

guard::HealthSignals healthy_signals() {
  guard::HealthSignals s;
  s.iter = 1;
  s.loss_total = 0.5;
  s.loss_policy = 0.2;
  s.loss_value = 0.3;
  s.entropy = 1.0;
  s.grad_norm = 2.0;
  s.param_norm = 40.0;
  s.value_abs_max = 1.5;
  s.mean_reward = 0.1;
  return s;
}

// ------------------------------------------------------- health monitor

TEST(HealthMonitor, HealthySignalsProduceEmptyReport) {
  guard::HealthMonitor monitor;
  const auto report = monitor.evaluate(healthy_signals());
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.has_error());
  EXPECT_FALSE(report.has_warning());
  EXPECT_EQ(report.worst(), nullptr);
  EXPECT_EQ(report.summary(), "healthy");
}

TEST(HealthMonitor, NonFiniteLossIsError) {
  guard::HealthMonitor monitor;
  for (const double bad : {kNan, kInf, -kInf}) {
    auto s = healthy_signals();
    s.loss_total = bad;
    const auto report = monitor.evaluate(s);
    ASSERT_TRUE(report.has_error());
    EXPECT_EQ(report.worst()->check, guard::Check::kLossFinite);
  }
  // A NaN in an individual term must be caught even when the total is fine.
  auto s = healthy_signals();
  s.loss_value = kNan;
  EXPECT_TRUE(monitor.evaluate(s).has_error());
}

TEST(HealthMonitor, NonFiniteGradAndParamAreErrors) {
  guard::HealthMonitor monitor;
  auto s = healthy_signals();
  s.grad_finite = false;
  s.grad_norm = kNan;
  auto report = monitor.evaluate(s);
  ASSERT_TRUE(report.has_error());
  EXPECT_EQ(report.worst()->check, guard::Check::kGradFinite);

  s = healthy_signals();
  s.param_finite = false;
  s.param_norm = kNan;
  report = monitor.evaluate(s);
  ASSERT_TRUE(report.has_error());
  EXPECT_EQ(report.worst()->check, guard::Check::kParamFinite);
}

TEST(HealthMonitor, ExplosionThresholds) {
  guard::HealthConfig cfg;
  cfg.grad_norm_max = 10.0;
  cfg.param_norm_max = 100.0;
  cfg.value_abs_max = 5.0;
  guard::HealthMonitor monitor(cfg);

  auto s = healthy_signals();
  s.grad_norm = 11.0;
  auto report = monitor.evaluate(s);
  ASSERT_TRUE(report.has_error());
  EXPECT_EQ(report.worst()->check, guard::Check::kGradExplosion);
  EXPECT_EQ(report.worst()->threshold, 10.0);

  s = healthy_signals();
  s.param_norm = 101.0;
  EXPECT_EQ(monitor.evaluate(s).worst()->check, guard::Check::kParamExplosion);

  s = healthy_signals();
  s.value_abs_max = 6.0;
  EXPECT_EQ(monitor.evaluate(s).worst()->check, guard::Check::kValueExplosion);

  // 0 disables the individual check.
  guard::HealthConfig off;
  off.grad_norm_max = 0.0;
  guard::HealthMonitor lax(off);
  s = healthy_signals();
  s.grad_norm = 1e12;
  EXPECT_TRUE(lax.evaluate(s).ok());
}

TEST(HealthMonitor, CollapseAndStallAreWarningsNotErrors) {
  guard::HealthConfig cfg;
  cfg.entropy_floor = 0.01;
  cfg.alpha_entropy_floor = 0.1;
  cfg.rollout_stall_ms = 100.0;
  guard::HealthMonitor monitor(cfg);

  auto s = healthy_signals();
  s.entropy = 0.001;
  s.alpha_entropy_mean = 0.05;
  s.rollout_ms = 200.0;
  const auto report = monitor.evaluate(s);
  EXPECT_FALSE(report.has_error());
  EXPECT_TRUE(report.has_warning());
  EXPECT_EQ(report.verdicts.size(), 3u);

  // alpha_entropy_mean < 0 means "not applicable" and must not warn.
  s = healthy_signals();
  s.alpha_entropy_mean = -1.0;
  EXPECT_TRUE(monitor.evaluate(s).ok());
}

TEST(HealthMonitor, RewardStagnationUsesEwmaBestTracking) {
  guard::HealthConfig cfg;
  cfg.reward_stagnation_iters = 5;
  cfg.reward_ewma_alpha = 0.5;
  guard::HealthMonitor monitor(cfg);

  // Improving rewards: never stagnant.
  for (int i = 1; i <= 10; ++i) {
    auto s = healthy_signals();
    s.iter = i;
    s.mean_reward = 0.1 * i;
    EXPECT_TRUE(monitor.evaluate(s).ok()) << "iter " << i;
  }
  // Collapsed rewards: the EWMA stops improving, so the warning fires once
  // the window past the best iteration is exceeded.
  bool warned = false;
  for (int i = 11; i <= 25; ++i) {
    auto s = healthy_signals();
    s.iter = i;
    s.mean_reward = 0.0;
    const auto report = monitor.evaluate(s);
    if (!report.ok()) {
      EXPECT_EQ(report.worst()->check, guard::Check::kRewardStagnation);
      EXPECT_EQ(report.worst()->severity, guard::Severity::kWarn);
      warned = true;
    }
  }
  EXPECT_TRUE(warned);

  // reset() clears the history so the restored run is judged fresh.
  monitor.reset();
  auto s = healthy_signals();
  s.iter = 26;
  s.mean_reward = 1.0;
  EXPECT_TRUE(monitor.evaluate(s).ok());
}

TEST(HealthMonitor, WorstPrefersErrorOverWarning) {
  guard::HealthConfig cfg;
  cfg.entropy_floor = 0.01;
  guard::HealthMonitor monitor(cfg);
  auto s = healthy_signals();
  s.entropy = 0.001;      // warn...
  s.loss_total = kNan;    // ...and error
  const auto report = monitor.evaluate(s);
  ASSERT_NE(report.worst(), nullptr);
  EXPECT_EQ(report.worst()->severity, guard::Severity::kError);
  EXPECT_NE(report.summary().find("loss_finite(error)"), std::string::npos);
}

TEST(CheckFinite, HelperFlagsOnlyNonFinite) {
  EXPECT_EQ(guard::check_finite(guard::Check::kLossFinite, 1.0, "x").severity,
            guard::Severity::kOk);
  EXPECT_EQ(guard::check_finite(guard::Check::kLossFinite, kNan, "x").severity,
            guard::Severity::kError);
  EXPECT_EQ(guard::check_finite(guard::Check::kLossFinite, kInf, "x").severity,
            guard::Severity::kError);
}

// ------------------------------------------------------- guard policy

guard::HealthReport error_report() {
  guard::HealthReport r;
  guard::HealthVerdict v;
  v.check = guard::Check::kLossFinite;
  v.severity = guard::Severity::kError;
  r.verdicts.push_back(v);
  return r;
}

guard::HealthReport warn_report() {
  guard::HealthReport r;
  guard::HealthVerdict v;
  v.check = guard::Check::kEntropyFloor;
  v.severity = guard::Severity::kWarn;
  r.verdicts.push_back(v);
  return r;
}

TEST(GuardPolicy, EscalatesThroughTheLadder) {
  guard::GuardConfig cfg;
  cfg.mode = guard::GuardMode::kHeal;
  cfg.skip_budget = 2;
  cfg.soften_budget = 1;
  cfg.max_rollbacks = 1;
  guard::GuardPolicy policy(cfg);

  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSkip);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSkip);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSoften);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kRollback);
  policy.on_rollback();
  EXPECT_EQ(policy.error_streak(), 0);
  EXPECT_EQ(policy.rollbacks(), 1);

  // The streak restarts after the rollback; the budget is spent, so the
  // ladder tops out at abort this time.
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSkip);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSkip);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSoften);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kAbort);
}

TEST(GuardPolicy, HealthyIterationResetsTheStreak) {
  guard::GuardConfig cfg;
  cfg.mode = guard::GuardMode::kHeal;
  cfg.skip_budget = 1;
  guard::GuardPolicy policy(cfg);
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSkip);
  EXPECT_EQ(policy.decide(guard::HealthReport{}), guard::GuardAction::kNone);
  EXPECT_EQ(policy.error_streak(), 0);
  // One-off errors keep getting answered with skips forever.
  EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kSkip);
}

TEST(GuardPolicy, WarningsNeverDriveTheLadder) {
  guard::GuardConfig cfg;
  cfg.mode = guard::GuardMode::kHeal;
  cfg.skip_budget = 0;
  guard::GuardPolicy policy(cfg);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(policy.decide(warn_report()), guard::GuardAction::kNone);
  }
  EXPECT_EQ(policy.error_streak(), 0);
}

TEST(GuardPolicy, WarnAndOffModesTakeNoAction) {
  for (const auto mode : {guard::GuardMode::kWarn, guard::GuardMode::kOff}) {
    guard::GuardConfig cfg;
    cfg.mode = mode;
    cfg.skip_budget = 0;
    cfg.soften_budget = 0;
    guard::GuardPolicy policy(cfg);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(policy.decide(error_report()), guard::GuardAction::kNone);
    }
  }
}

TEST(GuardMode, ParseRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(guard::parse_guard_mode("off"), guard::GuardMode::kOff);
  EXPECT_EQ(guard::parse_guard_mode("warn"), guard::GuardMode::kWarn);
  EXPECT_EQ(guard::parse_guard_mode("heal"), guard::GuardMode::kHeal);
  EXPECT_THROW(guard::parse_guard_mode("aggressive"), util::InputError);
  EXPECT_STREQ(guard::guard_mode_name(guard::GuardMode::kHeal), "heal");
}

TEST(GuardConfig, EnvOverridesWin) {
  ::setenv("A3CS_GUARD", "heal", 1);
  ::setenv("A3CS_GUARD_SKIPS", "7", 1);
  ::setenv("A3CS_GUARD_ROLLBACKS", "9", 1);
  ::setenv("A3CS_GUARD_GRAD_MAX", "123.5", 1);
  ::setenv("A3CS_GUARD_STALL_MS", "250", 1);
  guard::GuardConfig cfg;
  const auto out = cfg.with_env_overrides();
  EXPECT_EQ(out.mode, guard::GuardMode::kHeal);
  EXPECT_EQ(out.skip_budget, 7);
  EXPECT_EQ(out.max_rollbacks, 9);
  EXPECT_DOUBLE_EQ(out.health.grad_norm_max, 123.5);
  EXPECT_DOUBLE_EQ(out.health.rollout_stall_ms, 250.0);
  ::unsetenv("A3CS_GUARD");
  ::unsetenv("A3CS_GUARD_SKIPS");
  ::unsetenv("A3CS_GUARD_ROLLBACKS");
  ::unsetenv("A3CS_GUARD_GRAD_MAX");
  ::unsetenv("A3CS_GUARD_STALL_MS");
}

// ------------------------------------------------------ fault injector

TEST(FaultInjector, FiresAtArmPointAndConsumesCounts) {
  guard::FaultInjector injector;
  injector.arm(guard::FaultKind::kNanGrad, 5, 2);
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 4));
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kInfLoss, 5));
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanGrad, 5));
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanGrad, 6));
  // Both counts consumed: even later iterations stay clean.
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 7));
  EXPECT_EQ(injector.total_fired(), 2);
}

TEST(FaultInjector, SpentFaultDoesNotRefireAfterRollbackRewind) {
  // A guard rollback rewinds the iteration counter below the arm point; the
  // count gate must keep the fault from re-injecting during the replay.
  guard::FaultInjector injector;
  injector.arm(guard::FaultKind::kNanParam, 10, 1);
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanParam, 10));
  for (std::int64_t iter = 6; iter <= 20; ++iter) {
    EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanParam, iter))
        << "refired at " << iter;
  }
}

TEST(FaultInjector, ArmsFromEnvironmentSpecs) {
  ::setenv("A3CS_FAULT_NAN_GRAD", "3", 1);
  ::setenv("A3CS_FAULT_INF_LOSS", "5:2", 1);
  ::setenv("A3CS_FAULT_STALL_MS", "75", 1);
  guard::FaultInjector injector;
  injector.arm_from_env();
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanGrad, 3));
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 4));
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kInfLoss, 5));
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kInfLoss, 6));
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kInfLoss, 7));
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanParam, 100));
  EXPECT_DOUBLE_EQ(injector.stall_ms(), 75.0);
  ::unsetenv("A3CS_FAULT_NAN_GRAD");
  ::unsetenv("A3CS_FAULT_INF_LOSS");
  ::unsetenv("A3CS_FAULT_STALL_MS");
}

TEST(FaultInjector, MalformedEnvSpecsThrowAndArmNothing) {
  for (const char* bad : {"abc", "-1", "5:", "5:0", "5:x", "5;2", "5,"}) {
    ::setenv("A3CS_FAULT_NAN_GRAD", bad, 1);
    guard::FaultInjector injector;
    try {
      injector.arm_from_env();
      ADD_FAILURE() << "spec '" << bad << "' should throw";
    } catch (const util::InputError& e) {
      const std::string want = std::string("A3CS_FAULT_NAN_GRAD=\"") + bad;
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 1000))
        << "spec '" << bad << "' should not arm";
  }
  ::setenv("A3CS_FAULT_NAN_GRAD", "", 1);  // empty = unset: arms nothing
  guard::FaultInjector injector;
  injector.arm_from_env();
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 1000));
  ::unsetenv("A3CS_FAULT_NAN_GRAD");
}

TEST(FaultInjector, EnvPlanArmsEveryListedEntry) {
  ::setenv("A3CS_FAULT_NAN_GRAD", "3,10:2", 1);
  guard::FaultInjector injector;
  injector.arm_from_env();
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanGrad, 3));
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 4));
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanGrad, 10));
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kNanGrad, 11));
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kNanGrad, 12));
  ::unsetenv("A3CS_FAULT_NAN_GRAD");
}

TEST(FaultInjector, ResetDisarms) {
  guard::FaultInjector injector;
  injector.arm(guard::FaultKind::kTruncCkpt, 0, 100);
  EXPECT_TRUE(injector.should_fire(guard::FaultKind::kTruncCkpt, 0));
  injector.reset();
  EXPECT_FALSE(injector.should_fire(guard::FaultKind::kTruncCkpt, 0));
  EXPECT_EQ(injector.total_fired(), 0);
}

// -------------------------------------- fused norm passes (nn::Module)

TEST(NormStats, MatchesPerTensorNorms) {
  util::Rng rng(3);
  nn::Linear lin("l", 3, 4, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(2.0f);
  params[1]->grad.fill(-1.0f);
  double expected = 0.0;
  for (auto* p : params) {
    const float n = p->grad.norm();
    expected += static_cast<double>(n) * n;
  }
  const auto gstats = nn::grad_norm_stats(params);
  EXPECT_TRUE(gstats.finite);
  EXPECT_NEAR(gstats.norm, std::sqrt(expected), 1e-6);

  const auto pstats = nn::param_norm_stats(params);
  EXPECT_TRUE(pstats.finite);
  EXPECT_GT(pstats.norm, 0.0);
}

TEST(NormStats, DetectsNanAndInf) {
  util::Rng rng(3);
  nn::Linear lin("l", 3, 4, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(1.0f);
  params[1]->grad[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(nn::grad_norm_stats(params).finite);
  params[1]->grad[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(nn::grad_norm_stats(params).finite);
  params[1]->grad[0] = 0.0f;
  EXPECT_TRUE(nn::grad_norm_stats(params).finite);

  params[0]->value[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(nn::param_norm_stats(params).finite);
}

TEST(ClipGradNorm, NonFiniteNormZeroesGradients) {
  util::Rng rng(3);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(5.0f);
  params[1]->grad[0] = std::numeric_limits<float>::quiet_NaN();
  const float norm = nn::clip_grad_norm(params, 1.0f);
  EXPECT_FALSE(std::isfinite(norm));
  for (auto* p : params) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f) << p->name << "[" << i << "]";
    }
  }
}

TEST(ZeroGradients, ClearsEveryElement) {
  util::Rng rng(3);
  nn::Linear lin("l", 2, 3, rng);
  auto params = lin.parameters();
  for (auto* p : params) p->grad.fill(1.5f);
  nn::zero_gradients(params);
  for (auto* p : params) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f);
    }
  }
}

// --------------------------------------------------- guarded a2c update

TEST(GuardedA2cUpdate, PoisonedNetSkipsTheOptimizerStep) {
  auto probe = arcade::make_game("Catch", 1);
  util::Rng rng(12);
  auto agent = nn::build_zoo_agent("Vanilla", probe->obs_spec(),
                                   probe->num_actions(), rng);
  arcade::VecEnv envs("Catch", 2, 9);
  rl::RolloutCollector collector(envs, util::Rng(10));
  const auto rollout = collector.collect(*agent.net, 5);

  // Poison one weight: the forward produces NaN logits, the loss goes NaN,
  // and the guarded update must drop the batch instead of stepping.
  auto params = agent.net->parameters();
  params.front()->value[0] = std::numeric_limits<float>::quiet_NaN();
  std::vector<tensor::Tensor> before;
  for (auto* p : params) before.push_back(p->value);

  rl::A2cConfig cfg;
  cfg.loss = rl::no_distill_coefficients();
  nn::RmsProp opt(1e-3);
  const auto stats = rl::a2c_update(*agent.net, rollout, cfg, opt, nullptr);
  EXPECT_TRUE(stats.skipped);
  for (std::size_t i = 0; i < params.size(); ++i) {
    for (std::int64_t k = 0; k < params[i]->value.numel(); ++k) {
      const float now = params[i]->value[k];
      const float was = before[i][k];
      // Bit-identical including the NaN slot (NaN != NaN, compare via isnan).
      ASSERT_TRUE(now == was || (std::isnan(now) && std::isnan(was)))
          << "param " << i << "[" << k << "] changed in a skipped update";
    }
  }
  // The gradients were zeroed so a later (healthy) step is unaffected.
  EXPECT_TRUE(nn::grad_norm_stats(params).finite);
  EXPECT_EQ(nn::grad_norm_stats(params).norm, 0.0);
}

}  // namespace
}  // namespace a3cs
