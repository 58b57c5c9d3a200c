#include "guard/fault.h"

#include "obs/metrics.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::guard {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNanGrad: return "nan_grad";
    case FaultKind::kInfLoss: return "inf_loss";
    case FaultKind::kNanParam: return "nan_param";
    case FaultKind::kStallEnv: return "stall_env";
    case FaultKind::kTruncCkpt: return "trunc_ckpt";
  }
  return "?";
}

FaultInjector& FaultInjector::global() {
  // Leaked singleton: magic-static init is thread-safe, the pointer is never
  // reassigned, and all mutation goes through mu_. A3CS_LINT(conc-static-local)
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::arm(FaultKind kind, std::int64_t at_iter, int count) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.push_back(Armed{kind, at_iter, count, 0});
}

void FaultInjector::arm_from_env() {
  static constexpr struct {
    const char* env;
    FaultKind kind;
  } kSpecs[] = {
      {"A3CS_FAULT_NAN_GRAD", FaultKind::kNanGrad},
      {"A3CS_FAULT_INF_LOSS", FaultKind::kInfLoss},
      {"A3CS_FAULT_NAN_PARAM", FaultKind::kNanParam},
      {"A3CS_FAULT_STALL_ENV", FaultKind::kStallEnv},
      {"A3CS_FAULT_TRUNC_CKPT", FaultKind::kTruncCkpt},
  };
  for (const auto& spec : kSpecs) {
    for (const auto& [at, count] :
         util::parse_plan(spec.env, util::env_string(spec.env, ""), ':')) {
      A3CS_LOG(WARN) << "fault plan from " << spec.env << ": "
                     << fault_kind_name(spec.kind) << " at iteration " << at
                     << " x" << count.value_or(1);
      arm(spec.kind, at, static_cast<int>(count.value_or(1)));
    }
  }
  set_stall_ms(util::env_double("A3CS_FAULT_STALL_MS", stall_ms(), 0.0,
                                util::kDoubleMax));
}

bool FaultInjector::should_fire(FaultKind kind, std::int64_t iter) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Armed& a : armed_) {
    if (a.kind != kind || iter < a.at_iter || a.fired >= a.count) continue;
    ++a.fired;
    ++total_fired_;
    static obs::Counter& injected =
        obs::MetricsRegistry::global().counter("guard.faults_injected");
    injected.inc();
    A3CS_LOG(WARN) << "injecting fault " << fault_kind_name(kind)
                   << " at iteration " << iter << " (" << a.fired << "/"
                   << a.count << ")";
    return true;
  }
  return false;
}

double FaultInjector::stall_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_ms_;
}

void FaultInjector::set_stall_ms(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_ms_ = ms;
}

std::int64_t FaultInjector::total_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_fired_;
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  total_fired_ = 0;
  stall_ms_ = 50.0;
}

}  // namespace a3cs::guard
