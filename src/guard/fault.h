// Deterministic fault injection for the training-health guard.
//
// Every rung of the guard's escalation ladder must be exercised by a REAL
// injected fault (the same standard ckpt_resume_test set for kill-and-resume:
// no mocks, corrupt the actual data path). The injector arms faults either
// programmatically (tests) or from the environment (CI smoke runs):
//
//   A3CS_FAULT_NAN_GRAD=I[:N]   poison a gradient element with NaN at
//                               iteration I (for N consecutive iterations)
//   A3CS_FAULT_INF_LOSS=I[:N]   poison the loss terms / head gradients
//                               with Inf
//   A3CS_FAULT_NAN_PARAM=I[:N]  poison a PARAMETER value with NaN —
//                               persistent corruption a skipped update
//                               cannot heal; forces the rollback rung
//   A3CS_FAULT_STALL_ENV=I[:N]  stall the rollout (A3CS_FAULT_STALL_MS,
//                               default 50)
//   A3CS_FAULT_TRUNC_CKPT=I[:N] truncate the checkpoint written at/after
//                               iteration I in half (torn tip)
//
// Each variable takes a comma list of such entries ("5,40:2" arms two
// faults); a malformed plan fails the run instead of arming nothing.
//
// A fault fires at the first iteration >= its arm point and consumes one
// count per firing. Counts (not iteration equality) gate re-firing so a
// guard ROLLBACK that rewinds the iteration counter below the arm point
// does not re-inject the same fault during the healed replay.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace a3cs::guard {

enum class FaultKind { kNanGrad, kInfLoss, kNanParam, kStallEnv, kTruncCkpt };

const char* fault_kind_name(FaultKind k);

class FaultInjector {
 public:
  // The process-global injector the engine consults. Tests arm it directly;
  // cross-process runs arm it through the environment (arm_from_env is
  // called once per CoSearchEngine::run).
  static FaultInjector& global();

  // Arms `kind` to fire `count` times starting at the first iteration
  // >= `at_iter`.
  void arm(FaultKind kind, std::int64_t at_iter, int count = 1);

  // Parses the A3CS_FAULT_* plans (util::parse_plan lists of "iter" or
  // "iter:count") and arms them. Unset variables arm nothing; a malformed
  // plan throws util::InputError.
  void arm_from_env();

  // True (and consumes one count) when `kind` should corrupt iteration
  // `iter`. Increments the guard.faults_injected metric on firing.
  bool should_fire(FaultKind kind, std::int64_t iter);

  // Duration of an injected env stall (A3CS_FAULT_STALL_MS overrides).
  double stall_ms() const;
  void set_stall_ms(double ms);

  // Total faults fired since the last reset (all kinds).
  std::int64_t total_fired() const;

  // Disarms everything (tests isolate themselves with this).
  void reset();

 private:
  struct Armed {
    FaultKind kind;
    std::int64_t at_iter;
    int count;
    int fired = 0;
  };

  mutable std::mutex mu_;
  std::vector<Armed> armed_;
  double stall_ms_ = 50.0;
  std::int64_t total_fired_ = 0;
};

}  // namespace a3cs::guard
