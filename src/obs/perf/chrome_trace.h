// Chrome/Perfetto `trace_events` export of the ProfScope hierarchy.
//
// When the outermost obs::RunScope has a Chrome path
// (A3CS_PROFILE_CHROME=out.json), it opens a ChromeTraceWriter and every
// ProfScope additionally emits a Begin/End duration-event pair into a JSON
// file that chrome://tracing and https://ui.perfetto.dev open directly:
//
//   {"otherData":{...run meta...},"displayTimeUnit":"ms","traceEvents":[
//   {"name":"cosearch-iter","cat":"a3cs","ph":"B","pid":1,"tid":1,"ts":12.5},
//   {"name":"gemm","cat":"a3cs","ph":"B","pid":1,"tid":1,"ts":13.0},
//   {"name":"gemm","ph":"E",...,"args":{"flops":33554432,...}},
//   ...]}
//
// Timestamps are steady_clock microseconds from writer creation (monotonic —
// wall-clock appears only in the otherData metadata block). Kernels annotate
// the innermost open scope with work counts (WorkCounters::add), so GEMM and
// conv "E" events carry flops / bytes_read / bytes_written plus derived
// GFLOP/s and arithmetic intensity for roofline readouts.
//
// Thread safety: events are committed under a writer mutex; each thread gets
// a stable small tid in first-seen order. The per-thread scope stack lives in
// thread_local storage, so begin/end pairs are balanced per thread by ProfScope
// RAII even when the writer is installed or torn down mid-scope (frames opened
// under a different writer generation are skipped, never half-emitted).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace a3cs::obs::perf {

class ChromeTraceWriter {
 public:
  // Opens (truncates) `path` and writes the metadata header; throws
  // util::InputError naming the path when it cannot. `max_events` caps the
  // file (default ~1M events); once reached, new Begin events are dropped
  // (their matching Ends are dropped with them, so the emitted stream stays
  // balanced).
  explicit ChromeTraceWriter(const std::string& path,
                             std::int64_t max_events = 1'000'000);
  ~ChromeTraceWriter();

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  const std::string& path() const { return path_; }
  std::int64_t events_written() const {
    return events_.load(std::memory_order_relaxed);
  }
  // True while a further B/E pair fits under the event cap.
  bool has_budget() const {
    return events_.load(std::memory_order_relaxed) + 2 <= max_events_;
  }

  // Emits one event. `args_json` is a pre-rendered JSON object ("" = none).
  // Returns false when the event cap dropped it.
  bool emit(const char* name, char phase, const std::string& args_json);

 private:
  double elapsed_us() const;
  int tid_for_current_thread();  // caller holds mu_

  std::string path_;
  std::int64_t max_events_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::ofstream file_;
  bool first_event_ = true;
  // Thread-id bookkeeping only, no thread creation. A3CS_LINT(conc-raw-thread)
  std::map<std::thread::id, int> tids_;
  std::atomic<std::int64_t> events_{0};
};

// ---------------------------------------------------------------- global ----

// The process-global Chrome trace slot (mirrors obs::global_trace()). Only
// the outermost obs::RunScope sets it; destroying the writer after clearing
// the slot finalizes the JSON file (closes the traceEvents array).
ChromeTraceWriter* global_chrome_trace();
void set_global_chrome_trace(ChromeTraceWriter* writer);
inline bool chrome_trace_active() { return global_chrome_trace() != nullptr; }

// --- ProfScope hooks (called by Profiler::enter/leave, not user code) -------

// Pushes a frame for `name` on the calling thread's scope stack and emits the
// "B" event when a writer is active.
void chrome_scope_begin(const char* name);
// Pops the innermost frame and emits the matching "E" event (with any work
// annotations accumulated by WorkCounters::add while the scope was open).
void chrome_scope_end();

// Adds work counts to the innermost open scope frame of the calling thread
// (no-op when profiling is off or no scope is open). Called by
// WorkCounters::add so kernels annotate traces for free.
void chrome_annotate_work(std::int64_t flops, std::int64_t bytes_read,
                          std::int64_t bytes_written);

}  // namespace a3cs::obs::perf
