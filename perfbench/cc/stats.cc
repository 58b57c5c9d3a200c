// Quantiles, peak RSS, seeds, digests and the windowed step metrics.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb(int pid) {
  const std::string proc =
      pid == 0 ? std::string("self") : std::to_string(pid);
  const std::string path = "/proc/" + proc + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool digest_matches_record(const Options& opt, const std::string& key,
                           const std::string& digest) {
  const std::filesystem::path dir =
      std::filesystem::path(opt.work_dir) / "digests";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / key;
  std::ifstream in(file);
  std::string recorded;
  if (in >> recorded) return recorded == digest;
  std::ofstream(file) << digest << "\n";
  return true;
}

namespace {

// Items done by time t of a cumulative, time-sorted record that starts at
// (0, 0), interpolated linearly between marks.
double items_by(const std::vector<Mark>& done, double t) {
  const auto it = std::lower_bound(
      done.begin(), done.end(), t,
      [](const Mark& m, double v) { return m.t_s < v; });
  if (it == done.end()) return done.back().items;
  if (it == done.begin()) return it->items;
  const Mark& a = *(it - 1);
  const double frac = it->t_s > a.t_s ? (t - a.t_s) / (it->t_s - a.t_s) : 1.0;
  return a.items + frac * (it->items - a.items);
}

}  // namespace

void add_step_metrics(Outcome& out, const std::vector<double>& step_ms,
                      std::vector<Mark> marks, double busy_s) {
  std::sort(marks.begin(), marks.end(),
            [](const Mark& a, const Mark& b) { return a.t_s < b.t_s; });
  std::vector<Mark> done{Mark{}};
  for (const Mark& m : marks) {
    done.push_back(Mark{m.t_s, done.back().items + m.items});
  }
  std::vector<double> rates;
  for (std::size_t w = 0; busy_s > 0.0 && w < kWindows; ++w) {
    const double a = busy_s * static_cast<double>(w) / kWindows;
    const double b = busy_s * static_cast<double>(w + 1) / kWindows;
    rates.push_back((items_by(done, b) - items_by(done, a)) / (b - a));
  }

  std::vector<double> p50, p90;
  const std::size_t n = step_ms.size();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::vector<double> window(
        step_ms.begin() + static_cast<std::ptrdiff_t>(n * w / kWindows),
        step_ms.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / kWindows));
    if (window.empty()) continue;
    p50.push_back(quantile(window, 0.5));
    p90.push_back(quantile(window, 0.9));
  }
  out.metrics["items_per_s"] = median(rates);
  out.metrics["items_per_s_mean"] =
      busy_s > 0.0 ? done.back().items / busy_s : 0.0;
  out.metrics["step_ms_p50"] = median(p50);
  out.metrics["step_ms_p90"] = median(p90);
  out.metrics["steps"] = static_cast<double>(n);
}

}  // namespace perfbench
