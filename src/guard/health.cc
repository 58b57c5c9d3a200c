#include "guard/health.h"

#include <cmath>
#include <sstream>

namespace a3cs::guard {

const char* check_name(Check c) {
  switch (c) {
    case Check::kLossFinite: return "loss_finite";
    case Check::kGradFinite: return "grad_finite";
    case Check::kGradExplosion: return "grad_explosion";
    case Check::kParamFinite: return "param_finite";
    case Check::kParamExplosion: return "param_explosion";
    case Check::kValueExplosion: return "value_explosion";
    case Check::kEntropyFloor: return "entropy_floor";
    case Check::kAlphaCollapse: return "alpha_collapse";
    case Check::kRewardStagnation: return "reward_stagnation";
    case Check::kEnvStall: return "env_stall";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kOk: return "ok";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "?";
}

bool HealthReport::has_error() const {
  for (const HealthVerdict& v : verdicts) {
    if (v.severity == Severity::kError) return true;
  }
  return false;
}

bool HealthReport::has_warning() const {
  for (const HealthVerdict& v : verdicts) {
    if (v.severity == Severity::kWarn) return true;
  }
  return false;
}

const HealthVerdict* HealthReport::worst() const {
  const HealthVerdict* out = nullptr;
  for (const HealthVerdict& v : verdicts) {
    if (out == nullptr || static_cast<int>(v.severity) >
                              static_cast<int>(out->severity)) {
      out = &v;
    }
  }
  return out;
}

std::string HealthReport::summary() const {
  if (verdicts.empty()) return "healthy";
  std::ostringstream oss;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << check_name(verdicts[i].check) << "("
        << severity_name(verdicts[i].severity) << ")";
  }
  return oss.str();
}

HealthMonitor::HealthMonitor(HealthConfig cfg)
    : cfg_(cfg), reward_ewma_(cfg.reward_ewma_alpha) {}

void HealthMonitor::reset() {
  reward_ewma_ = util::Ema(cfg_.reward_ewma_alpha);
  best_valid_ = false;
  best_ewma_ = 0.0;
  best_iter_ = 0;
}

HealthReport HealthMonitor::evaluate(const HealthSignals& s) {
  HealthReport report;
  const auto add = [&report](Check check, Severity sev, double value,
                             double threshold, std::string detail) {
    HealthVerdict v;
    v.check = check;
    v.severity = sev;
    v.value = value;
    v.threshold = threshold;
    v.detail = std::move(detail);
    report.verdicts.push_back(std::move(v));
  };

  // --- finiteness (errors): a single NaN/Inf here poisons everything.
  if (!std::isfinite(s.loss_total) || !std::isfinite(s.loss_policy) ||
      !std::isfinite(s.loss_value) || !std::isfinite(s.entropy)) {
    add(Check::kLossFinite, Severity::kError, s.loss_total, 0.0,
        "loss term non-finite");
  }
  if (!s.grad_finite) {
    add(Check::kGradFinite, Severity::kError, s.grad_norm, 0.0,
        "gradient global norm non-finite");
  }
  if (!s.param_finite) {
    add(Check::kParamFinite, Severity::kError, s.param_norm, 0.0,
        "parameter global norm non-finite");
  }

  // --- explosions (errors): finite but hopeless.
  if (cfg_.grad_norm_max > 0.0 && s.grad_finite &&
      s.grad_norm > cfg_.grad_norm_max) {
    add(Check::kGradExplosion, Severity::kError, s.grad_norm,
        cfg_.grad_norm_max, "pre-clip gradient norm exploded");
  }
  if (cfg_.param_norm_max > 0.0 && s.param_finite &&
      s.param_norm > cfg_.param_norm_max) {
    add(Check::kParamExplosion, Severity::kError, s.param_norm,
        cfg_.param_norm_max, "parameter norm exploded");
  }
  if (cfg_.value_abs_max > 0.0 && std::isfinite(s.value_abs_max) &&
      s.value_abs_max > cfg_.value_abs_max) {
    add(Check::kValueExplosion, Severity::kError, s.value_abs_max,
        cfg_.value_abs_max, "value estimate exploded");
  }

  // --- collapse / stagnation (warnings): degradation, not corruption.
  if (cfg_.entropy_floor > 0.0 && std::isfinite(s.entropy) &&
      s.entropy < cfg_.entropy_floor) {
    add(Check::kEntropyFloor, Severity::kWarn, s.entropy, cfg_.entropy_floor,
        "policy entropy under floor");
  }
  if (cfg_.alpha_entropy_floor > 0.0 && s.alpha_entropy_mean >= 0.0 &&
      s.alpha_entropy_mean < cfg_.alpha_entropy_floor) {
    add(Check::kAlphaCollapse, Severity::kWarn, s.alpha_entropy_mean,
        cfg_.alpha_entropy_floor, "alpha entropy under floor");
  }
  if (cfg_.rollout_stall_ms > 0.0 && s.rollout_ms > cfg_.rollout_stall_ms) {
    add(Check::kEnvStall, Severity::kWarn, s.rollout_ms,
        cfg_.rollout_stall_ms, "rollout wall time above stall threshold");
  }

  if (cfg_.reward_stagnation_iters > 0 && std::isfinite(s.mean_reward)) {
    const double ewma = reward_ewma_.update(s.mean_reward);
    if (!best_valid_ || ewma > best_ewma_ + cfg_.reward_min_delta) {
      best_valid_ = true;
      best_ewma_ = ewma;
      best_iter_ = s.iter;
    } else if (s.iter - best_iter_ >=
               static_cast<std::int64_t>(cfg_.reward_stagnation_iters)) {
      add(Check::kRewardStagnation, Severity::kWarn, ewma, best_ewma_,
          "reward EWMA flat for " + std::to_string(s.iter - best_iter_) +
              " iterations");
    }
  }

  return report;
}

}  // namespace a3cs::guard
