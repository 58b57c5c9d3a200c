// The guard's escalation ladder.
//
// The HealthMonitor says WHETHER an iteration is unhealthy; the GuardPolicy
// decides WHAT to do about it, escalating through increasingly invasive
// remedies as consecutive unhealthy iterations pile up:
//
//   1. skip     — drop the offending batch: zero the gradients, no optimizer
//                 step. Heals one-off corruption (a single NaN batch).
//   2. soften   — halve the learning rates and bump the Gumbel temperature
//                 for a cooldown window. Heals marginal instability the skip
//                 could not (looping value explosion, oscillating alpha).
//   3. rollback — restore the newest checkpoint TAGGED HEALTHY (see
//                 ckpt::SectionWriter::set_healthy) and reseed the sampling
//                 RNG streams so the replay explores a different trajectory
//                 instead of deterministically re-diverging.
//   4. abort    — rollback budget exhausted: dump diagnostics and stop.
//
// Modes: kOff disables monitoring entirely (the negative-control mode the
// fault-injection tests use to prove the faults really corrupt an unguarded
// run), kWarn observes/reports but never acts, kHeal runs the full ladder.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "guard/health.h"

namespace a3cs::guard {

enum class GuardMode { kOff, kWarn, kHeal };

const char* guard_mode_name(GuardMode m);
// Parses "off" | "warn" | "heal" (case-sensitive); anything else throws
// util::InputError naming `name` (the knob or flag the text came from).
GuardMode parse_guard_mode(const std::string& s,
                           std::string_view name = "guard mode");

enum class GuardAction { kNone, kSkip, kSoften, kRollback, kAbort };

const char* guard_action_name(GuardAction a);

struct GuardConfig {
  GuardMode mode = GuardMode::kWarn;
  HealthConfig health;

  // Ladder shape: the first `skip_budget` consecutive error iterations are
  // answered with skips, the next `soften_budget` with softens, then each
  // further one triggers a rollback until `max_rollbacks` is spent.
  int skip_budget = 2;
  int soften_budget = 2;
  double soften_lr_scale = 0.5;    // applied per soften, multiplicative
  double soften_tau_boost = 1.25;  // Gumbel temperature bump per soften
  int soften_cooldown_iters = 20;  // window the reduced LR stays in force
  int max_rollbacks = 3;

  // Returns a copy with A3CS_GUARD_* environment overrides applied (env
  // wins, mirroring A3CS_TRACE_* / A3CS_CKPT_* semantics; malformed values
  // throw util::InputError):
  //   A3CS_GUARD=off|warn|heal     the mode
  //   A3CS_GUARD_SKIPS / _SOFTENS / _ROLLBACKS      ladder budgets
  //   A3CS_GUARD_COOLDOWN                           soften window (iters)
  //   A3CS_GUARD_GRAD_MAX / _PARAM_MAX / _VALUE_MAX explosion thresholds
  //   A3CS_GUARD_ENTROPY_FLOOR / _ALPHA_FLOOR       collapse floors (nats)
  //   A3CS_GUARD_STAGNATION_ITERS                   reward EWMA window
  //   A3CS_GUARD_STALL_MS                           rollout stall threshold
  GuardConfig with_env_overrides() const;
};

// Thrown by the engine when the ladder reaches kAbort: the run is
// unsalvageable within the configured budgets. Carries the final report
// summary; a diagnostic state dump has been written before the throw.
class GuardAbort : public std::runtime_error {
 public:
  explicit GuardAbort(const std::string& msg, std::int64_t iter = -1)
      : std::runtime_error(msg), iter_(iter) {}

  // Iteration the ladder gave up at (-1 when unknown). Process supervisors
  // (src/fleet) forward it in their `diverged` report so the fleet log pins
  // exactly where a shard was written off.
  std::int64_t iter() const { return iter_; }

 private:
  std::int64_t iter_ = -1;
};

// Per-run ladder state machine. decide() consumes one HealthReport per
// iteration and returns the action for it; the caller performs the action
// (the policy itself never touches training state) and reports rollback
// completion back via on_rollback().
class GuardPolicy {
 public:
  explicit GuardPolicy(GuardConfig cfg = GuardConfig{});

  GuardAction decide(const HealthReport& report);

  // Called after the engine finished restoring a checkpoint: spends one
  // rollback budget unit and clears the error streak.
  void on_rollback();

  int error_streak() const { return streak_; }
  int rollbacks() const { return rollbacks_; }
  const GuardConfig& config() const { return cfg_; }

 private:
  GuardConfig cfg_;
  int streak_ = 0;
  int rollbacks_ = 0;
};

}  // namespace a3cs::guard
