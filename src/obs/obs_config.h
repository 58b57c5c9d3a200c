// Observability configuration, threaded through CoSearchConfig (and usable
// standalone by benches/tools). Environment variables mirror A3CS_LOG_LEVEL
// so a run can be instrumented without recompiling or touching configs:
//
//   A3CS_TRACE_PATH=search.jsonl   JSONL tracing to this file
//   A3CS_TRACE_EVERY=N             emit every Nth per-iteration event
//   A3CS_PROFILE=0|1               hierarchical wall-time profiling scopes
//   A3CS_PROFILE_CHROME=out.json   export ProfScopes as Chrome/Perfetto
//                                  trace_events JSON (implies A3CS_PROFILE=1)
//
// Each sink has one switch, its path: a sink is on iff its path is set.
#pragma once

#include <string>

namespace a3cs::obs {

struct ObsConfig {
  // JSONL run tracing (TraceWriter) to this file; empty = off.
  std::string trace_path;
  // Emit every Nth per-iteration trace event (1 = every iteration). Phase
  // and summary events are never thinned.
  int trace_every = 1;

  // Hierarchical ProfScope wall-time profiling. The outermost run scope
  // that enabled it logs the profile table when it finishes.
  bool profile_enabled = false;
  // When non-empty, export scopes as Chrome trace_events JSON to this path
  // (openable in chrome://tracing / ui.perfetto.dev). Implies
  // profile_enabled.
  std::string profile_chrome_path;

  // Returns a copy with environment-variable overrides applied on top of
  // the programmatic values (env wins, matching A3CS_LOG_LEVEL semantics).
  ObsConfig with_env_overrides() const;
};

}  // namespace a3cs::obs
