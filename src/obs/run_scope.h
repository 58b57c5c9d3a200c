// One run's observability scope: the single place a run resolves its
// ObsConfig, turns on profiling, opens the JSONL and Chrome trace sinks and
// reports the end-of-run profile.
//
//   obs::RunScope scope(cfg.obs, "co-search");
//   if (iter % scope.config().trace_every == 0) obs::trace_event(...);
//
// Scopes nest by an explicit process-wide depth. Only the outermost scope
// opens the sinks and reports, so a pipeline outranks its co-search phase
// and a bench suite outranks its rows: the profile table (logged as
// "<label> wall-time profile") and the "profile" trace records appear once
// per process. The report is skipped when the scope unwinds through an
// exception.
#pragma once

#include <optional>

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
  bool outermost_;
  int uncaught_;  // std::uncaught_exceptions() at entry
  std::optional<TraceSession> trace_;
  std::optional<perf::ChromeTraceSession> chrome_;
};

}  // namespace a3cs::obs
