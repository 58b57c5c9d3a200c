// Structured JSONL run tracing.
//
// A TraceWriter appends one JSON object per line to a file:
//
//   {"ts_ms":12.345,"type":"cosearch_iter","frames":640,"loss_total":1.23,...}
//
// `ts_ms` is a monotonic (steady_clock) offset from writer creation, so event
// deltas are wall-time accurate even if the system clock steps; the opening
// "trace_start" event records the ISO-8601 wall-clock time for anchoring.
// Writers are thread-safe (one line is committed atomically under a mutex)
// and write each line through to the file as it commits, so a process that
// dies by _Exit or SIGKILL leaves every committed event readable.
//
// Library code writes through the process-global trace slot, which the
// outermost obs::RunScope fills when its config has a trace path:
//
//   obs::RunScope scope(cfg, "co-search");   // opens and installs a writer
//   obs::trace_event("phase").kv("name", "rollout").kv("dur_ms", 3.2);
//
// When no writer is installed, trace_event() costs one atomic load and the
// builder's kv() calls are no-ops — tracing disabled is near-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

namespace a3cs::obs {

class TraceWriter {
 public:
  // Opens (truncates) `path`; throws util::InputError naming the path when
  // it cannot. Emits a "trace_start" header event.
  explicit TraceWriter(const std::string& path);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  const std::string& path() const { return path_; }
  std::int64_t events_written() const {
    return events_.load(std::memory_order_relaxed);
  }

  // Builder for one event line. Committed (written to the file) when the
  // builder is destroyed, i.e. at the end of the full expression:
  //   writer.event("iter").kv("frames", n).kv("loss", l);
  class EventBuilder {
   public:
    EventBuilder(TraceWriter* writer, std::string_view type);
    ~EventBuilder();
    EventBuilder(EventBuilder&& other) noexcept;
    EventBuilder(const EventBuilder&) = delete;
    EventBuilder& operator=(const EventBuilder&) = delete;
    EventBuilder& operator=(EventBuilder&&) = delete;

    EventBuilder& kv(std::string_view key, double v);
    EventBuilder& kv(std::string_view key, std::int64_t v);
    EventBuilder& kv(std::string_view key, int v) {
      return kv(key, static_cast<std::int64_t>(v));
    }
    EventBuilder& kv(std::string_view key, bool v);
    EventBuilder& kv(std::string_view key, std::string_view v);
    EventBuilder& kv(std::string_view key, const char* v) {
      return kv(key, std::string_view(v));
    }

   private:
    TraceWriter* writer_;  // nullptr => inactive no-op builder
    std::string line_;
  };

  EventBuilder event(std::string_view type) { return EventBuilder(this, type); }

  // Appends a JSON-escaped string literal (quotes included) to `out`.
  static void append_json_string(std::string& out, std::string_view s);
  // Appends a JSON number; non-finite doubles become null.
  static void append_json_number(std::string& out, double v);

 private:
  friend class EventBuilder;
  void commit(std::string&& line);
  double elapsed_ms() const;

  std::string path_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::ofstream file_;
  std::atomic<std::int64_t> events_{0};
};

// ---------------------------------------------------------------- global ----

// The process-global trace slot used by instrumented library code. Only the
// outermost obs::RunScope sets it: to its writer on entry, to nullptr on
// exit.
TraceWriter* global_trace();
void set_global_trace(TraceWriter* writer);

// Event builder against the global slot; inert (near-free) when no writer
// is installed.
TraceWriter::EventBuilder trace_event(std::string_view type);
inline bool trace_active() { return global_trace() != nullptr; }

}  // namespace a3cs::obs
