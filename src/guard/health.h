// Training-health monitoring for the co-search loop.
//
// DNAS-for-DRL is unstable by construction (the paper's Sec. IV-B introduces
// AC-distillation precisely because naive co-search collapses): value
// estimates explode, the policy or the architecture distribution collapses,
// and a single NaN gradient silently poisons every weight. The HealthMonitor
// turns the cheap per-iteration signals the engine already has (loss terms,
// fused gradient/parameter norms, value magnitude, entropies, rewards) into
// typed HealthVerdicts that the GuardPolicy escalation ladder acts on
// (skip -> soften -> rollback -> abort; see policy.h and docs/ROBUSTNESS.md).
//
// Severity semantics:
//   kError — the update is unsafe to commit (non-finite state, explosion);
//            drives the escalation ladder.
//   kWarn  — a degradation signal (entropy/alpha collapse, reward
//            stagnation, env stall); reported and traced, never escalated.
#pragma once

#include <string>
#include <vector>

#include "util/stats.h"

namespace a3cs::guard {

enum class Check {
  kLossFinite,        // every loss term finite
  kGradFinite,        // fused gradient global norm finite
  kGradExplosion,     // pre-clip gradient norm above threshold
  kParamFinite,       // fused parameter global norm finite
  kParamExplosion,    // parameter norm above threshold
  kValueExplosion,    // max |V(s)| above threshold
  kEntropyFloor,      // policy entropy under the floor (policy collapse)
  kAlphaCollapse,     // mean alpha entropy under the floor (premature commit)
  kRewardStagnation,  // reward EWMA flat for too many iterations
  kEnvStall,          // rollout wall time above threshold
};

const char* check_name(Check c);

enum class Severity { kOk, kWarn, kError };

const char* severity_name(Severity s);

// One check's outcome for one iteration.
struct HealthVerdict {
  Check check = Check::kLossFinite;
  Severity severity = Severity::kOk;
  double value = 0.0;      // the observed signal
  double threshold = 0.0;  // the limit it was compared against
  std::string detail;      // human-readable one-liner for logs/traces
};

struct HealthReport {
  std::vector<HealthVerdict> verdicts;  // only non-OK verdicts are recorded

  bool ok() const { return verdicts.empty(); }
  bool has_error() const;
  bool has_warning() const;
  // The most severe verdict, errors first; nullptr when ok().
  const HealthVerdict* worst() const;
  std::string summary() const;
};

// Thresholds; 0 (or a negative value) disables the individual check.
struct HealthConfig {
  double grad_norm_max = 1e6;     // pre-clip explosion bound
  double param_norm_max = 1e7;    // parameter explosion bound
  double value_abs_max = 1e4;     // critic explosion bound (paper: value
                                  // explosion is the canonical failure)
  double entropy_floor = 1e-3;    // nats; 0 disables
  double alpha_entropy_floor = 0.0;  // nats; disabled by default (alpha is
                                     // SUPPOSED to commit late in search)
  // Reward-stagnation EWMA: warn when the smoothed reward has not improved
  // by `reward_min_delta` for `reward_stagnation_iters` iterations. 0
  // disables (default: short reproduction runs stagnate legitimately).
  int reward_stagnation_iters = 0;
  double reward_ewma_alpha = 0.05;
  double reward_min_delta = 1e-6;
  // Env-stall watchdog on the rollout wall time; 0 disables.
  double rollout_stall_ms = 0.0;
};

// Everything one iteration hands the monitor. Losses/norms are doubles so a
// float NaN/Inf survives the trip intact.
struct HealthSignals {
  std::int64_t iter = 0;
  double loss_total = 0.0;
  double loss_policy = 0.0;
  double loss_value = 0.0;
  double entropy = 0.0;          // true policy entropy (nats)
  double grad_norm = 0.0;        // fused pre-clip global norm
  bool grad_finite = true;
  double param_norm = 0.0;       // fused post-update global norm
  bool param_finite = true;
  double value_abs_max = 0.0;    // max |V(s)| over the batch
  double alpha_entropy_mean = -1.0;  // < 0 when not applicable
  double mean_reward = 0.0;
  double rollout_ms = 0.0;
};

// Stateful per-run monitor: most checks are pure threshold comparisons, the
// reward-stagnation check keeps an EWMA across iterations. evaluate() is
// read-only with respect to the training state and costs O(#checks).
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig cfg = HealthConfig{});

  HealthReport evaluate(const HealthSignals& s);

  // Clears the cross-iteration state (reward EWMA); called after a rollback
  // so pre-divergence history does not judge the restored run.
  void reset();

  const HealthConfig& config() const { return cfg_; }

 private:
  HealthConfig cfg_;
  util::Ema reward_ewma_;
  double best_ewma_ = 0.0;
  bool best_valid_ = false;
  std::int64_t best_iter_ = 0;
};

}  // namespace a3cs::guard
