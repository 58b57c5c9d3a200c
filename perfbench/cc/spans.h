// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer's public functions; spans nest by
// thread (a span's parent is the innermost open span of the same thread),
// carry the heap allocations made while they were open, and are written out
// as a Chrome trace once the run ends. Recording is off unless enabled, so
// untraced runs pay one branch per span site.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    int parent = -1;             // index into spans(), -1 for a root
    int thread = 0;
    double start_us = 0.0;       // since enable()
    double dur_us = 0.0;
    double child_us = 0.0;       // time covered by direct children
    std::int64_t allocs = 0;     // allocations while open (all threads)
    std::int64_t bytes = 0;
  };
  struct Total {
    double total_ms = 0.0;  // inclusive
    double self_ms = 0.0;   // minus direct children
    std::int64_t calls = 0;
    std::int64_t allocs = 0;
    std::int64_t bytes = 0;
  };

  static SpanRecorder& global();

  void enable();   // clears recorded spans, starts the clock
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int open(const char* name);
  void close(int index);

  // Per span name, over every recorded span.
  std::map<std::string, Total> totals() const;

  // Chrome trace-event JSON ("X" events; args carry allocs/bytes/parent).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t origin_ns_ = 0;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(SpanRecorder::global().enabled()
                   ? SpanRecorder::global().open(name)
                   : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) SpanRecorder::global().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
