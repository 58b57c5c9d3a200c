#include "obs/run_scope.h"

#include <atomic>
#include <exception>
#include <sstream>

#include "obs/profile.h"
#include "util/logging.h"

namespace a3cs::obs {

namespace {
std::atomic<int> g_depth{0};
}  // namespace

RunScope::RunScope(const ObsConfig& cfg, const char* label)
    : cfg_(cfg.with_env_overrides()),
      label_(label),
      outermost_(g_depth.fetch_add(1) == 0),
      uncaught_(std::uncaught_exceptions()) {
  if (cfg_.profile_enabled) Profiler::set_enabled(true);
  if (!outermost_) return;
  trace_.emplace(cfg_);
  chrome_.emplace(cfg_);
}

RunScope::~RunScope() {
  g_depth.fetch_sub(1);
  if (!outermost_ || !cfg_.profile_enabled ||
      std::uncaught_exceptions() > uncaught_) {
    return;
  }
  if (trace_active()) Profiler::global().emit_to_trace(*global_trace());
  if (cfg_.profile_summary) {
    std::ostringstream oss;
    Profiler::global().print_summary(oss);
    A3CS_LOG(INFO) << label_ << " wall-time profile:\n" << oss.str();
  }
}

}  // namespace a3cs::obs
