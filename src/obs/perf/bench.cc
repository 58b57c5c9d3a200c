#include "obs/perf/bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "obs/perf/bench_json.h"
#include "obs/run_scope.h"
#include "util/config.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace a3cs::obs::perf {

namespace {

std::atomic<BenchSuite::ClockFn> g_clock{nullptr};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool smoke_mode() { return util::env_int("A3CS_BENCH_SMOKE", 0) != 0; }

// Parses env var `name` strictly: returns an error string when it is set but
// not a full valid number (or violates the positivity requirement).
std::string strict_env_error(const char* name, bool integer,
                             bool require_positive) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return "";
  const std::string text(raw);
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    if (integer) {
      value = static_cast<double>(std::stoll(text, &consumed));
    } else {
      value = std::stod(text, &consumed);
    }
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != text.size()) {
    return std::string(name) + "=\"" + text + "\" is not a valid " +
           (integer ? "integer" : "number");
  }
  if (require_positive && value <= 0.0) {
    return std::string(name) + "=\"" + text + "\" must be > 0";
  }
  return "";
}

}  // namespace

// ------------------------------------------------------------------ Bench ---

bool Bench::smoke() const { return smoke_mode(); }

void Bench::clear_staged() {
  config_.clear();
  threads_ = 0;
  flops_ = 0;
  bytes_ = 0;
  items_ = 0.0;
  items_unit_.clear();
  budget_ = BenchBudget{};
}

void Bench::run(const std::function<void()>& fn) {
  BenchBudget budget = budget_;
  if (smoke_mode()) {
    budget = BenchBudget{/*warmup=*/0, /*min_repeats=*/1, /*max_repeats=*/1,
                         /*min_total_ms=*/0.0};
  }
  const int prev_threads = util::ThreadPool::global().threads();
  if (threads_ > 0 && threads_ != prev_threads) {
    util::ThreadPool::set_global_threads(threads_);
  }

  for (int i = 0; i < budget.warmup; ++i) fn();

  std::vector<double> samples_ms;
  samples_ms.reserve(static_cast<std::size_t>(budget.max_repeats));
  double total_ms = 0.0;
  while (true) {
    const std::int64_t t0 = BenchSuite::now_ns();
    fn();
    const std::int64_t t1 = BenchSuite::now_ns();
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    samples_ms.push_back(ms);
    total_ms += ms;
    const int n = static_cast<int>(samples_ms.size());
    if (n >= budget.max_repeats) break;
    if (n < budget.min_repeats) continue;
    if (total_ms < budget.min_total_ms) continue;
    std::vector<double> sorted = samples_ms;
    std::sort(sorted.begin(), sorted.end());
    const double median = exact_quantile(sorted, 0.5);
    const double spread =
        exact_quantile(sorted, 0.9) - exact_quantile(sorted, 0.1);
    if (spread <= 0.25 * median) break;
  }

  std::vector<double> sorted = samples_ms;
  std::sort(sorted.begin(), sorted.end());

  BenchResult result;
  result.name = name_;
  result.config = config_;
  result.threads = threads_ > 0 ? threads_ : prev_threads;
  result.repeats = static_cast<int>(samples_ms.size());
  result.median_ms = exact_quantile(sorted, 0.5);
  result.p10_ms = exact_quantile(sorted, 0.1);
  result.p90_ms = exact_quantile(sorted, 0.9);
  result.mean_ms =
      total_ms / static_cast<double>(std::max<std::size_t>(1, sorted.size()));
  result.steady =
      result.p90_ms - result.p10_ms <= 0.25 * result.median_ms;
  if (items_ > 0.0 && result.median_ms > 0.0) {
    result.throughput = items_ / (result.median_ms / 1e3);
    result.throughput_unit = items_unit_;
  } else if (flops_ > 0 && result.median_ms > 0.0) {
    // No explicit items: derive GFLOP/s from the analytic flops annotation
    // (flops per iteration / median seconds / 1e9).
    result.throughput =
        static_cast<double>(flops_) / (result.median_ms * 1e6);
    result.throughput_unit = "GFLOP/s";
  }
  result.flops = flops_;
  result.bytes = bytes_;
  suite_->record(std::move(result));

  if (threads_ > 0 && threads_ != prev_threads) {
    util::ThreadPool::set_global_threads(prev_threads);
  }
  clear_staged();
}

// -------------------------------------------------------------- BenchSuite --

BenchSuite& BenchSuite::global() {
  // Leaked singleton: populated during static init (single-threaded), run
  // from main. A3CS_LINT(conc-static-local)
  static BenchSuite* suite = new BenchSuite();
  return *suite;
}

void BenchSuite::add(const std::string& name, BenchFn fn) {
  benches_.emplace_back(name, fn);
}

std::vector<std::string> BenchSuite::names() const {
  std::vector<std::string> out;
  out.reserve(benches_.size());
  for (const auto& [name, fn] : benches_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

void BenchSuite::set_clock_for_test(ClockFn clock) {
  g_clock.store(clock, std::memory_order_relaxed);
}

std::int64_t BenchSuite::now_ns() {
  const ClockFn clock = g_clock.load(std::memory_order_relaxed);
  return clock != nullptr ? clock() : steady_now_ns();
}

void BenchSuite::record(BenchResult result) {
  results_.push_back(std::move(result));
}

std::vector<BenchResult> BenchSuite::run_all(const std::string& filter) {
  std::vector<std::pair<std::string, BenchFn>> sorted = benches_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  results_.clear();
  for (const auto& [name, fn] : sorted) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    Bench bench(this, name);
    fn(bench);
  }
  std::vector<BenchResult> out = std::move(results_);
  results_.clear();
  std::sort(out.begin(), out.end(),
            [](const BenchResult& a, const BenchResult& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.config != b.config) return a.config < b.config;
              return a.threads < b.threads;
            });
  return out;
}

double exact_quantile(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  if (sorted_ms.size() == 1) return sorted_ms.front();
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_ms[lo] + frac * (sorted_ms[hi] - sorted_ms[lo]);
}

std::vector<std::string> validate_bench_env() {
  std::vector<std::string> errors;
  const char* const float_vars[] = {"A3CS_SCALE"};
  const char* const positive_int_vars[] = {"A3CS_EVAL_EPISODES"};
  const char* const int_vars[] = {"A3CS_BENCH_SMOKE", "A3CS_THREADS"};
  for (const char* name : float_vars) {
    const std::string err =
        strict_env_error(name, /*integer=*/false, /*require_positive=*/true);
    if (!err.empty()) errors.push_back(err);
  }
  for (const char* name : positive_int_vars) {
    const std::string err =
        strict_env_error(name, /*integer=*/true, /*require_positive=*/true);
    if (!err.empty()) errors.push_back(err);
  }
  for (const char* name : int_vars) {
    const std::string err =
        strict_env_error(name, /*integer=*/true, /*require_positive=*/false);
    if (!err.empty()) errors.push_back(err);
  }
  return errors;
}

// ------------------------------------------------------------------- main ---

int run_bench_main(const std::string& suite_name, int argc, char** argv) {
  const std::vector<std::string> env_errors = validate_bench_env();
  if (!env_errors.empty()) {
    for (const std::string& err : env_errors) {
      std::cerr << "bench env error: " << err << "\n";
    }
    return 2;
  }

  std::string json_path = util::env_string("A3CS_BENCH_JSON", "");
  std::string filter;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_" << suite_name
                << " [--json out.json] [--filter substr] [--list]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  BenchSuite& suite = BenchSuite::global();
  if (list_only) {
    for (const std::string& name : suite.names()) std::cout << name << "\n";
    return 0;
  }

  const RunScope scope(ObsConfig{}, "bench suite");

  std::cout << "== bench suite: " << suite_name
            << " (scale=" << util::bench_scale()
            << (smoke_mode() ? ", SMOKE" : "") << ") ==\n";
  const std::vector<BenchResult> results = suite.run_all(filter);

  util::TextTable table({"bench", "config", "thr", "reps", "median ms",
                         "p10 ms", "p90 ms", "steady", "throughput"});
  for (const BenchResult& r : results) {
    std::string tp;
    if (r.throughput > 0.0) {
      tp = util::TextTable::num(r.throughput, 1) + " " + r.throughput_unit;
    }
    table.add_row({r.name, r.config, std::to_string(r.threads),
                   std::to_string(r.repeats),
                   util::TextTable::num(r.median_ms, 3),
                   util::TextTable::num(r.p10_ms, 3),
                   util::TextTable::num(r.p90_ms, 3), r.steady ? "yes" : "NO",
                   tp});
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    BenchDoc doc;
    doc.suite = suite_name;
    doc.meta = collect_run_meta();
    doc.results = results;
    write_bench_file(json_path, doc);
    std::cout << "wrote " << json_path << " (" << results.size()
              << " results)\n";
  }
  return 0;
}

}  // namespace a3cs::obs::perf
