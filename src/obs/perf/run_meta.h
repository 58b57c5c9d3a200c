// Provenance metadata stamped into every perf artifact (BENCH_*.json, Chrome
// traces): git SHA, host fingerprint, thread count, A3CS_SCALE, wall-clock
// time, the hot TUs' compile flags. This is the ONE place wall-clock values
// are allowed to appear in perf output — every content field outside the
// metadata block must be deterministic (docs/BENCHMARKING.md).
#pragma once

#include <string>

namespace a3cs::obs::perf {

struct RunMeta {
  std::string git_sha;    // A3CS_GIT_SHA env > build-time stamp > "unknown"
  std::string host;       // "<nodename>/<machine>/<hw_concurrency>c"
  int threads = 1;        // resolved global ThreadPool size
  double scale = 1.0;     // util::bench_scale()
  bool smoke = false;     // A3CS_BENCH_SMOKE=1 minimum-scale run
  std::string wall_time;  // ISO-8601, stamped at collection time
  // Compile flags of the hot TUs (kernel backends, ops, layers, mixed_op),
  // from src/CMakeLists.txt; empty in artifacts that predate the field.
  std::string hot_tu_flags;
};

// Collects the current process's metadata (reads env, pool, clock once).
RunMeta collect_run_meta();

// Renders the meta block as a JSON object value (no trailing newline), keys
// in fixed order so emission is byte-stable for fixed field values; an empty
// hot_tu_flags is left out.
std::string render_meta_json(const RunMeta& meta);

}  // namespace a3cs::obs::perf
