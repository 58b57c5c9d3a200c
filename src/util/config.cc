#include "util/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

extern char** environ;

namespace a3cs::util {

namespace {

template <class T>
std::optional<T> from_chars_whole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

template <class T>
T in_range(std::string_view name, std::string_view text, std::optional<T> v,
           T lo, T hi, const char* what) {
  if (v && *v >= lo && *v <= hi) return *v;
  std::ostringstream expected;
  expected << what << " in [" << lo << ", " << hi << "]";
  throw InputError(name, text, expected.str());
}

}  // namespace

InputError::InputError(std::string_view name, std::string_view text,
                       std::string_view expected)
    : std::runtime_error(std::string(name) + "=\"" + std::string(text) +
                         "\": expected " + std::string(expected)) {}

std::optional<std::int64_t> to_int(std::string_view text) {
  return from_chars_whole<std::int64_t>(text);
}

std::optional<double> to_double(std::string_view text) {
  const std::optional<double> v = from_chars_whole<double>(text);
  return v && std::isfinite(*v) ? v : std::nullopt;
}

std::int64_t parse_int(std::string_view name, std::string_view text,
                       std::int64_t lo, std::int64_t hi) {
  return in_range(name, text, to_int(text), lo, hi, "an integer");
}

double parse_double(std::string_view name, std::string_view text, double lo,
                    double hi) {
  return in_range(name, text, to_double(text), lo, hi, "a finite number");
}

int count_arg(int argc, char** argv, int i, std::string_view name,
              int fallback) {
  if (i >= argc) return fallback;
  return static_cast<int>(parse_int(name, argv[i], 1, kIntMax));
}

std::int64_t env_int(const std::string& name, std::int64_t fallback,
                     std::int64_t lo, std::int64_t hi) {
  const std::string raw = env_string(name, "");
  return raw.empty() ? fallback : parse_int(name, raw, lo, hi);
}

double env_double(const std::string& name, double fallback, double lo,
                  double hi) {
  const std::string raw = env_string(name, "");
  return raw.empty() ? fallback : parse_double(name, raw, lo, hi);
}

bool env_flag(const std::string& name, bool fallback) {
  return env_int(name, fallback ? 1 : 0, 0, 1) != 0;
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* env = std::getenv(name.c_str());
  return env == nullptr ? fallback : std::string(env);
}

std::string env_summary() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "A3CS_", 5) == 0) set.emplace_back(*e);
  }
  std::sort(set.begin(), set.end());
  std::string out;
  for (const std::string& kv : set) out += (out.empty() ? "" : " ") + kv;
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (std::size_t pos = 0;;) {
    const std::size_t next = std::min(text.find(sep, pos), text.size());
    out.emplace_back(text.substr(pos, next - pos));
    if (next == text.size()) return out;
    pos = next + 1;
  }
}

std::vector<std::pair<std::int64_t, std::optional<std::int64_t>>> parse_plan(
    std::string_view name, std::string_view text, char sep) {
  std::vector<std::pair<std::int64_t, std::optional<std::int64_t>>> out;
  if (text.empty()) return out;
  for (const std::string& entry : split(text, ',')) {
    const std::size_t at = entry.find(sep);
    const std::optional<std::int64_t> a = to_int(entry.substr(0, at));
    std::optional<std::int64_t> b;
    if (at != std::string::npos) b = to_int(entry.substr(at + 1));
    if (!a || *a < 0 || *a > kIntMax ||
        (at != std::string::npos && (!b || *b < 1 || *b > kIntMax))) {
      throw InputError(name, text,
                       std::string("a comma list of A or A") + sep +
                           "B entries (A >= 0, B >= 1)");
    }
    out.emplace_back(*a, b);
  }
  return out;
}

double bench_scale() { return env_double("A3CS_SCALE", 1.0, 1e-3, 1e3); }

std::int64_t scaled_steps(std::int64_t steps, std::int64_t min_steps) {
  const double scaled = static_cast<double>(steps) * bench_scale();
  return std::max<std::int64_t>(min_steps, static_cast<std::int64_t>(scaled));
}

}  // namespace a3cs::util
