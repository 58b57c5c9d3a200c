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
      uncaught_(std::uncaught_exceptions()),
      outermost_(g_depth.load() == 0) {
  if (outermost_ && !cfg_.trace_path.empty()) {
    trace_ = std::make_unique<TraceWriter>(cfg_.trace_path);
  }
  if (outermost_ && !cfg_.profile_chrome_path.empty()) {
    chrome_ =
        std::make_unique<perf::ChromeTraceWriter>(cfg_.profile_chrome_path);
  }
  // Both sinks are open and nothing below throws: the scope counts from here.
  g_depth.fetch_add(1);
  if (cfg_.profile_enabled) Profiler::set_enabled(true);
  if (trace_) {
    set_global_trace(trace_.get());
    A3CS_LOG(INFO) << "tracing to " << cfg_.trace_path;
  }
  if (chrome_) perf::set_global_chrome_trace(chrome_.get());
}

RunScope::~RunScope() {
  g_depth.fetch_sub(1);
  // An empty tree (a process whose scopes all ran elsewhere, such as the
  // fleet supervisor) reports nothing.
  if (outermost_ && cfg_.profile_enabled &&
      std::uncaught_exceptions() <= uncaught_ &&
      !Profiler::global().flatten().empty()) {
    if (trace_) Profiler::global().emit_to_trace(*trace_);
    std::ostringstream oss;
    Profiler::global().print_summary(oss);
    A3CS_LOG(INFO) << label_ << " wall-time profile:\n" << oss.str();
  }
  if (chrome_) perf::set_global_chrome_trace(nullptr);
  if (trace_) set_global_trace(nullptr);
}

}  // namespace a3cs::obs
