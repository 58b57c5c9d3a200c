#include "obs/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/config.h"
#include "util/logging.h"

namespace a3cs::obs {

namespace {
constexpr int kFlushEvery = 64;  // events between flushes
}  // namespace

void TraceWriter::append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void TraceWriter::append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

TraceWriter::TraceWriter(const std::string& path)
    : path_(path),
      start_(std::chrono::steady_clock::now()),
      file_(path, std::ios::trunc) {
  if (!file_) throw util::InputError("trace file", path, "a writable path");
  event("trace_start").kv("wall_time", util::iso8601_now());
}

TraceWriter::~TraceWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  file_.flush();
}

double TraceWriter::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void TraceWriter::commit(std::string&& line) {
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  file_ << line;
  events_.fetch_add(1, std::memory_order_relaxed);
  if (++pending_ >= kFlushEvery) {
    file_.flush();
    pending_ = 0;
  }
}

void TraceWriter::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  file_.flush();
  pending_ = 0;
}

TraceWriter::EventBuilder::EventBuilder(TraceWriter* writer,
                                        std::string_view type)
    : writer_(writer) {
  if (writer_ == nullptr) return;
  line_ = "{\"ts_ms\":";
  append_json_number(line_, writer_->elapsed_ms());
  line_ += ",\"type\":";
  append_json_string(line_, type);
}

TraceWriter::EventBuilder::EventBuilder(EventBuilder&& other) noexcept
    : writer_(std::exchange(other.writer_, nullptr)),
      line_(std::move(other.line_)) {}

TraceWriter::EventBuilder::~EventBuilder() {
  if (writer_ != nullptr) writer_->commit(std::move(line_));
}

TraceWriter::EventBuilder& TraceWriter::EventBuilder::kv(std::string_view key,
                                                         double v) {
  if (writer_ == nullptr) return *this;
  line_ += ',';
  append_json_string(line_, key);
  line_ += ':';
  append_json_number(line_, v);
  return *this;
}

TraceWriter::EventBuilder& TraceWriter::EventBuilder::kv(std::string_view key,
                                                         std::int64_t v) {
  if (writer_ == nullptr) return *this;
  line_ += ',';
  append_json_string(line_, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), ":%" PRId64, v);
  line_ += buf;
  return *this;
}

TraceWriter::EventBuilder& TraceWriter::EventBuilder::kv(std::string_view key,
                                                         bool v) {
  if (writer_ == nullptr) return *this;
  line_ += ',';
  append_json_string(line_, key);
  line_ += v ? ":true" : ":false";
  return *this;
}

TraceWriter::EventBuilder& TraceWriter::EventBuilder::kv(std::string_view key,
                                                         std::string_view v) {
  if (writer_ == nullptr) return *this;
  line_ += ',';
  append_json_string(line_, key);
  line_ += ':';
  append_json_string(line_, v);
  return *this;
}

// ---------------------------------------------------------------- global ----

namespace {
std::atomic<TraceWriter*> g_trace{nullptr};
}  // namespace

TraceWriter* global_trace() {
  return g_trace.load(std::memory_order_acquire);
}

void set_global_trace(TraceWriter* writer) {
  g_trace.store(writer, std::memory_order_release);
}

TraceWriter::EventBuilder trace_event(std::string_view type) {
  return TraceWriter::EventBuilder(global_trace(), type);
}

}  // namespace a3cs::obs
