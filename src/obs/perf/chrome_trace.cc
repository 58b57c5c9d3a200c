#include "obs/perf/chrome_trace.h"

#include <utility>
#include <vector>

#include "obs/perf/run_meta.h"
#include "obs/trace.h"
#include "util/config.h"

namespace a3cs::obs::perf {

namespace {

// Global writer slot. Only RunScope writes it; hot-path readers use a
// relaxed load (a ProfScope racing a RunScope teardown is handled by the
// frame generation check below, not by ordering).
std::atomic<ChromeTraceWriter*> g_chrome_trace{nullptr};

// One open ProfScope on this thread. `writer` records which writer (if any)
// the Begin event went to, so End is emitted iff the same writer is still
// installed — a writer torn down or swapped mid-scope never produces an
// unbalanced or cross-file event.
struct Frame {
  const char* name;
  ChromeTraceWriter* writer;  // nullptr => no B emitted, suppress the E
  std::int64_t flops = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
};

thread_local std::vector<Frame> t_frames;

void append_work_args(std::string& out, const Frame& f) {
  out += "{\"flops\":" + std::to_string(f.flops);
  out += ",\"bytes_read\":" + std::to_string(f.bytes_read);
  out += ",\"bytes_written\":" + std::to_string(f.bytes_written);
  out += "}";
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(const std::string& path,
                                     std::int64_t max_events)
    : path_(path),
      max_events_(max_events),
      start_(std::chrono::steady_clock::now()) {
  file_.open(path, std::ios::out | std::ios::trunc);
  if (!file_.is_open()) {
    throw util::InputError("Chrome trace file", path, "a writable path");
  }
  file_ << "{\"otherData\":" << render_meta_json(collect_run_meta())
        << ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

ChromeTraceWriter::~ChromeTraceWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  file_ << "\n]}\n";
  file_.close();
}

double ChromeTraceWriter::elapsed_us() const {
  const auto now = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
                 .count()) /
         1e3;
}

int ChromeTraceWriter::tid_for_current_thread() {
  const auto id = std::this_thread::get_id();
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size()) + 1;
  tids_.emplace(id, tid);
  return tid;
}

bool ChromeTraceWriter::emit(const char* name, char phase,
                             const std::string& args_json) {
  const double ts = elapsed_us();
  std::string line;
  line.reserve(96 + args_json.size());
  line += "{\"name\":";
  TraceWriter::append_json_string(line, name);
  line += ",\"cat\":\"a3cs\",\"ph\":\"";
  line += phase;
  line += "\",\"pid\":1,\"tid\":";
  std::lock_guard<std::mutex> lock(mu_);
  line += std::to_string(tid_for_current_thread());
  line += ",\"ts\":";
  TraceWriter::append_json_number(line, ts);
  if (!args_json.empty()) {
    line += ",\"args\":";
    line += args_json;
  }
  line += "}";
  if (!first_event_) file_ << ",\n";
  first_event_ = false;
  file_ << line;
  events_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

ChromeTraceWriter* global_chrome_trace() {
  return g_chrome_trace.load(std::memory_order_relaxed);
}

void set_global_chrome_trace(ChromeTraceWriter* writer) {
  g_chrome_trace.store(writer, std::memory_order_release);
}

void chrome_scope_begin(const char* name) {
  ChromeTraceWriter* writer = global_chrome_trace();
  Frame frame;
  frame.name = name;
  frame.writer = nullptr;
  // Cap check: once the event budget is spent, stop opening new pairs but
  // keep the stack balanced (frames record that no B was written).
  if (writer != nullptr && writer->has_budget()) {
    writer->emit(name, 'B', "");
    frame.writer = writer;
  }
  t_frames.push_back(frame);
}

void chrome_scope_end() {
  if (t_frames.empty()) return;  // writer installed mid-scope: nothing to pop
  Frame frame = t_frames.back();
  t_frames.pop_back();
  if (frame.writer == nullptr) return;
  if (global_chrome_trace() != frame.writer) return;  // torn down mid-scope
  std::string args;
  if (frame.flops > 0 || frame.bytes_read > 0 || frame.bytes_written > 0) {
    append_work_args(args, frame);
  }
  frame.writer->emit(frame.name, 'E', args);
}

void chrome_annotate_work(std::int64_t flops, std::int64_t bytes_read,
                          std::int64_t bytes_written) {
  if (t_frames.empty()) return;
  Frame& frame = t_frames.back();
  frame.flops += flops;
  frame.bytes_read += bytes_read;
  frame.bytes_written += bytes_written;
}

}  // namespace a3cs::obs::perf
