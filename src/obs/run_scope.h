// One run's observability session: the single place a run resolves its
// ObsConfig, turns on profiling, opens and owns the JSONL and Chrome trace
// sinks and reports the end-of-run profile.
//
//   obs::RunScope scope(cfg.obs, "co-search");
//   if (iter % scope.config().trace_every == 0) obs::trace_event(...);
//
// Scopes nest by an explicit process-wide depth. Only the outermost scope
// opens the sinks (TraceWriter at trace_path, ChromeTraceWriter at
// profile_chrome_path), installs them in the global slots that
// obs::trace_event() and ProfScopes read, and reports, so a pipeline
// outranks its co-search phase and a bench suite outranks its rows: the
// profile table (logged as "<label> wall-time profile") and the "profile"
// trace records appear once per process. The report is skipped when the
// scope unwinds through an exception.
//
// A sink path that cannot be opened throws util::InputError naming it
// before the scope counts or enables anything, so a later scope is again
// the outermost one. Scopes are opened and closed on one thread.
#pragma once

#include <memory>

#include "obs/obs_config.h"
#include "obs/perf/chrome_trace.h"
#include "obs/trace.h"

namespace a3cs::obs {

class RunScope {
 public:
  RunScope(const ObsConfig& cfg, const char* label);
  ~RunScope();

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  // The config with environment overrides applied.
  const ObsConfig& config() const { return cfg_; }

 private:
  ObsConfig cfg_;
  const char* label_;
  int uncaught_;  // std::uncaught_exceptions() at entry
  bool outermost_;
  // Set only in the outermost scope, and only for a configured path.
  std::unique_ptr<TraceWriter> trace_;
  std::unique_ptr<perf::ChromeTraceWriter> chrome_;
};

}  // namespace a3cs::obs
