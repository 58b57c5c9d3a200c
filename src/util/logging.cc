#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/config.h"

namespace a3cs::util {
namespace {

// These knobs are read during static initialization, before main can catch
// anything: a malformed value prints its InputError line and exits 2.
template <class Read>
auto read_knob(Read read) {
  try {
    return read();
  } catch (const InputError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

std::atomic<LogLevel> g_threshold = read_knob([] {
  const std::string env = env_string("A3CS_LOG_LEVEL", "");
  if (env.empty() || env == "INFO") return LogLevel::kInfo;
  if (env == "DEBUG") return LogLevel::kDebug;
  if (env == "WARN") return LogLevel::kWarn;
  if (env == "ERROR") return LogLevel::kError;
  throw InputError("A3CS_LOG_LEVEL", env, "DEBUG|INFO|WARN|ERROR");
});

const bool g_log_tid =
    read_knob([] { return env_flag("A3CS_LOG_TID", false); });

std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}

}  // namespace

LogLevel log_threshold() {
  return g_threshold.load(std::memory_order_relaxed);
}
void set_log_threshold(LogLevel level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

std::string iso8601_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  localtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03d",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  if (level_ < g_threshold.load(std::memory_order_relaxed)) return;
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << level_name(level) << " " << iso8601_now() << " ";
  if (g_log_tid) stream_ << "t" << std::this_thread::get_id() << " ";
  stream_ << (base ? base + 1 : file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ < g_threshold.load(std::memory_order_relaxed)) return;
  // Single write per message (newline included) so concurrent log lines
  // never interleave mid-line; the mutex orders whole lines.
  const std::string line = stream_.str() + "\n";
  std::lock_guard<std::mutex> lock(g_mutex);
  std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
  std::cerr.flush();
}

namespace detail {
void check_failed(const char* cond, const std::string& msg, const char* file,
                  int line) {
  std::ostringstream oss;
  oss << "A3CS_CHECK failed: (" << cond << ") " << msg << " at " << file << ":"
      << line;
  throw std::runtime_error(oss.str());
}
}  // namespace detail

}  // namespace a3cs::util
