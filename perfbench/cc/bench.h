// Shared types of the end-to-end benchmark: command-line options, the
// per-run outcome every workload returns, and small measuring helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace a3cs {
namespace accel {}
namespace arcade {}
namespace ckpt {}
namespace core {}
namespace das {}
namespace guard {}
namespace nas {}
namespace nn {}
namespace obs {}
namespace rl {}
namespace tensor {}
namespace util {}
}  // namespace a3cs

namespace perfbench {

namespace accel = a3cs::accel;
namespace arcade = a3cs::arcade;
namespace ckpt = a3cs::ckpt;
namespace core = a3cs::core;
namespace das = a3cs::das;
namespace guard = a3cs::guard;
namespace nas = a3cs::nas;
namespace nn = a3cs::nn;
namespace obs = a3cs::obs;
namespace rl = a3cs::rl;
namespace tensor = a3cs::tensor;
namespace util = a3cs::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // run files (checkpoints, digests, traces)
  std::string server_path;  // predictor_server binary (serve workload)
  // Set-up probe: build the workload, print "ready" and exit (see
  // median_setup_launch_s in child.h).
  bool setup_probe = false;
};

// What one run reports. `metrics` holds every measured value by name; main
// prints them all and perfbench/run.py keeps the ones BENCHMARK.json names
// for the run's mode.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;  // failed correctness checks

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

Outcome run_cosearch(const Options& opt);
Outcome run_train_eval(const Options& opt);
Outcome run_serve(const Options& opt);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Peak resident set (VmHWM) of a process in MB; pid 0 = this process.
double peak_rss_mb(int pid = 0);

// Independent sub-seeds of the workload seed (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// 64-bit FNV-1a over a string, rendered as 16 hex digits.
std::string digest_hex(const std::string& text);

// Cross-run determinism: the first run at a seed records `digest` under
// <work_dir>/digests/<key>; later runs must reproduce it. Returns false on a
// mismatch.
bool digest_matches_record(const Options& opt, const std::string& key,
                           const std::string& digest);

// Items completed at `t_s` seconds into a timed run.
struct Mark {
  double t_s = 0.0;
  double items = 0.0;
};

// The end-to-end metrics every workload reports from its untraced run of
// `busy_s` seconds. items_per_s is the median over kWindows equal time
// slices of the items done in the slice per second (completions spread
// linearly between marks); step_ms_p50/p90 are the medians over kWindows
// windows of consecutive steps of each window's percentile. A burst of
// interference from other tenants of the host then moves at most a minority
// of the windows. items_per_s_mean (the plain mean rate) and steps (the
// sample count) are printed alongside.
inline constexpr std::size_t kWindows = 10;
void add_step_metrics(Outcome& out, const std::vector<double>& step_ms,
                      std::vector<Mark> marks, double busy_s);

}  // namespace perfbench
