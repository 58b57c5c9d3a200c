#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>

#include "alloc_count.h"

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Innermost open span of this thread, and a small per-thread id.
thread_local int t_current = -1;
std::atomic<int> g_next_thread{0};
thread_local int t_thread = g_next_thread.fetch_add(1);

}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  spans_.reserve(1 << 16);
  origin_ns_ = now_ns();
  enabled_.store(true, std::memory_order_relaxed);
}

void SpanRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

int SpanRecorder::open(const char* name) {
  const alloc::Totals a = alloc::totals();
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.parent = t_current;
  s.thread = t_thread;
  s.start_us = static_cast<double>(t - origin_ns_) / 1e3;
  // Opening values, turned into deltas by close().
  s.allocs = a.allocs;
  s.bytes = a.bytes;
  spans_.push_back(s);
  t_current = static_cast<int>(spans_.size()) - 1;
  return t_current;
}

void SpanRecorder::close(int index) {
  const std::int64_t t = now_ns();
  const alloc::Totals a = alloc::totals();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.dur_us = static_cast<double>(t - origin_ns_) / 1e3 - s.start_us;
  s.allocs = a.allocs - s.allocs;
  s.bytes = a.bytes - s.bytes;
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_us += s.dur_us;
  }
  t_current = s.parent;
}

std::map<std::string, SpanRecorder::Total> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Total> out;
  for (const Span& s : spans_) {
    Total& t = out[s.name];
    t.total_ms += s.dur_us / 1e3;
    t.self_ms += (s.dur_us - s.child_us) / 1e3;
    t.calls += 1;
    t.allocs += s.allocs;
    t.bytes += s.bytes;
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"allocs\":" << s.allocs << ",\"bytes\":" << s.bytes << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
