#include "guard/policy.h"

#include "util/config.h"

namespace a3cs::guard {

const char* guard_mode_name(GuardMode m) {
  switch (m) {
    case GuardMode::kOff: return "off";
    case GuardMode::kWarn: return "warn";
    case GuardMode::kHeal: return "heal";
  }
  return "?";
}

GuardMode parse_guard_mode(const std::string& s, std::string_view name) {
  if (s == "off") return GuardMode::kOff;
  if (s == "warn") return GuardMode::kWarn;
  if (s == "heal") return GuardMode::kHeal;
  throw util::InputError(name, s, "off|warn|heal");
}

const char* guard_action_name(GuardAction a) {
  switch (a) {
    case GuardAction::kNone: return "none";
    case GuardAction::kSkip: return "skip";
    case GuardAction::kSoften: return "soften";
    case GuardAction::kRollback: return "rollback";
    case GuardAction::kAbort: return "abort";
  }
  return "?";
}

GuardConfig GuardConfig::with_env_overrides() const {
  using util::kDoubleMax;
  using util::kIntMax;
  GuardConfig out = *this;
  const std::string mode = util::env_string("A3CS_GUARD", "");
  if (!mode.empty()) out.mode = parse_guard_mode(mode, "A3CS_GUARD");
  out.skip_budget = static_cast<int>(
      util::env_int("A3CS_GUARD_SKIPS", out.skip_budget, 0, kIntMax));
  out.soften_budget = static_cast<int>(
      util::env_int("A3CS_GUARD_SOFTENS", out.soften_budget, 0, kIntMax));
  out.max_rollbacks = static_cast<int>(
      util::env_int("A3CS_GUARD_ROLLBACKS", out.max_rollbacks, 0, kIntMax));
  out.soften_cooldown_iters = static_cast<int>(util::env_int(
      "A3CS_GUARD_COOLDOWN", out.soften_cooldown_iters, 0, kIntMax));
  HealthConfig& h = out.health;
  h.grad_norm_max =
      util::env_double("A3CS_GUARD_GRAD_MAX", h.grad_norm_max, 0, kDoubleMax);
  h.param_norm_max = util::env_double("A3CS_GUARD_PARAM_MAX", h.param_norm_max,
                                      0, kDoubleMax);
  h.value_abs_max =
      util::env_double("A3CS_GUARD_VALUE_MAX", h.value_abs_max, 0, kDoubleMax);
  h.entropy_floor = util::env_double("A3CS_GUARD_ENTROPY_FLOOR",
                                     h.entropy_floor, 0, kDoubleMax);
  h.alpha_entropy_floor = util::env_double(
      "A3CS_GUARD_ALPHA_FLOOR", h.alpha_entropy_floor, 0, kDoubleMax);
  h.reward_stagnation_iters = static_cast<int>(util::env_int(
      "A3CS_GUARD_STAGNATION_ITERS", h.reward_stagnation_iters, 0, kIntMax));
  h.rollout_stall_ms = util::env_double("A3CS_GUARD_STALL_MS",
                                        h.rollout_stall_ms, 0, kDoubleMax);
  return out;
}

GuardPolicy::GuardPolicy(GuardConfig cfg) : cfg_(cfg) {}

GuardAction GuardPolicy::decide(const HealthReport& report) {
  if (cfg_.mode == GuardMode::kOff) return GuardAction::kNone;
  if (!report.has_error()) {
    streak_ = 0;
    return GuardAction::kNone;
  }
  ++streak_;
  if (cfg_.mode == GuardMode::kWarn) return GuardAction::kNone;
  if (streak_ <= cfg_.skip_budget) return GuardAction::kSkip;
  if (streak_ <= cfg_.skip_budget + cfg_.soften_budget) {
    return GuardAction::kSoften;
  }
  if (rollbacks_ >= cfg_.max_rollbacks) return GuardAction::kAbort;
  return GuardAction::kRollback;
}

void GuardPolicy::on_rollback() {
  ++rollbacks_;
  streak_ = 0;
}

}  // namespace a3cs::guard
