// Per-kernel work accounting: floating-point operations and bytes moved.
//
// A kernel's work counts are three counters of the global MetricsRegistry,
// `work.<kernel>.flops`, `work.<kernel>.bytes_read` and
// `work.<kernel>.bytes_written`. Kernels bind them once (a function-local
// static; the registry entries are never destroyed) and add their analytic
// work model per call:
//
//   static const WorkCounters wc = WorkCounters::named("gemm");
//   wc.add(2 * m * k * n, /*bytes_read=*/..., /*bytes_written=*/...);
//
// add() is three relaxed fetch_adds plus a thread-local Chrome-trace frame
// annotation — cheap enough to leave always-on in the inner GEMM/conv/im2col
// kernels. Work totals feed three consumers:
//   * chrome trace "E" events (args.flops / bytes_*) for roofline readouts,
//   * the metrics registry, like any other counter,
//   * one "work" JSONL trace event per kernel at end of run
//     (record_work_metrics()).
//
// Counts are analytic (derived from shapes), not measured — they say how much
// work the algorithm did, independent of cache behaviour, which is exactly
// what arithmetic-intensity plots want.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace a3cs::obs::perf {

struct WorkCounters {
  // The registry counters of `kernel`, created on first use.
  static WorkCounters named(const std::string& kernel);

  // Accumulates work and annotates the innermost open Chrome-trace scope of
  // the calling thread (if any).
  void add(std::int64_t flop_count, std::int64_t read,
           std::int64_t written) const;

  Counter& flops;
  Counter& bytes_read;
  Counter& bytes_written;
};

// Emits one "work" JSONL trace event per kernel with nonzero totals, read
// from the registry. Called at end of run next to record_exec_stats().
void record_work_metrics();

}  // namespace a3cs::obs::perf
