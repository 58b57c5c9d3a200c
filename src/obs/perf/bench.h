// Benchmark registry: the durable perf-measurement layer behind the repo's
// BENCH_*.json baselines (docs/BENCHMARKING.md).
//
// Harnesses register benchmarks with the BENCH macro and measure cases
// through the Bench handle's fluent API:
//
//   BENCH("gemm") {
//     for (const Shape& s : shapes(b.smoke())) {
//       b.config(s.label)
//           .work(2 * s.m * s.k * s.n, s.bytes)
//           .run([&] { tensor::gemm_raw(...); });
//     }
//   }
//
//   int main(int argc, char** argv) {
//     return a3cs::obs::perf::run_bench_main("kernels", argc, argv);
//   }
//
// Each run() takes adaptive repeats (warmup, then sample until the budget and
// steadiness criteria are met), computes exact median/p10/p90 by linear
// interpolation over the sorted samples, and records a steady-state flag:
// a case is steady when (p90 - p10) <= 0.25 * median. The timer is the
// registry's injectable monotonic clock — never std::chrono::system_clock
// (a3cs-lint rule det-bench-clock) — so tests can drive the whole pipeline
// with a fake clock and assert byte-stable output.
//
// Modes:
//   A3CS_BENCH_SMOKE=1   minimum-scale run: no warmup, one repeat, and
//                        benches should pick tiny shapes via b.smoke().
//   --json <path> / A3CS_BENCH_JSON=<path>   write the schema-versioned
//                        result document (see bench_json.h).
//   --filter <substr>    only run benchmarks whose name contains substr.
//   --list               print registered benchmark names and exit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace a3cs::obs::perf {

// One measured case (benchmark name x config x threads).
struct BenchResult {
  std::string name;
  std::string config;  // shape/variant label, "" for single-case benches
  int threads = 1;
  int repeats = 0;
  double median_ms = 0.0;
  double p10_ms = 0.0;
  double p90_ms = 0.0;
  double mean_ms = 0.0;
  bool steady = false;
  double throughput = 0.0;  // items()/median-second, 0 when no items set
  std::string throughput_unit;
  std::int64_t flops = 0;  // analytic per-iteration work, 0 = not annotated
  std::int64_t bytes = 0;
};

// Sampling policy for one run() call. Defaults are the full-mode protocol;
// smoke mode collapses to {warmup:0, min_repeats:1, max_repeats:1,
// min_total_ms:0}.
struct BenchBudget {
  int warmup = 1;
  int min_repeats = 5;
  int max_repeats = 50;
  double min_total_ms = 150.0;
};

class BenchSuite;

// Handle passed to each registered benchmark body. config()/threads()/work()/
// items() stage attributes for the next run() call; run() measures and
// appends one BenchResult to the suite.
class Bench {
 public:
  Bench& config(const std::string& label) {
    config_ = label;
    return *this;
  }
  Bench& threads(int n) {
    threads_ = n;
    return *this;
  }
  // Analytic per-iteration work for roofline context in the JSON artifact.
  Bench& work(std::int64_t flops, std::int64_t bytes) {
    flops_ = flops;
    bytes_ = bytes;
    return *this;
  }
  // Per-iteration item count for derived throughput (items / median second).
  Bench& items(double n, const std::string& unit) {
    items_ = n;
    items_unit_ = unit;
    return *this;
  }
  Bench& budget(const BenchBudget& b) {
    budget_ = b;
    return *this;
  }

  // True in A3CS_BENCH_SMOKE mode — bodies should pick tiny shapes.
  bool smoke() const;

  // Measures fn under the staged attributes, then clears them.
  void run(const std::function<void()>& fn);

 private:
  friend class BenchSuite;
  explicit Bench(BenchSuite* suite, std::string name)
      : suite_(suite), name_(std::move(name)) {}

  void clear_staged();

  BenchSuite* suite_;
  std::string name_;
  std::string config_;
  int threads_ = 0;  // 0 = current global pool size
  std::int64_t flops_ = 0;
  std::int64_t bytes_ = 0;
  double items_ = 0.0;
  std::string items_unit_;
  BenchBudget budget_;
};

using BenchFn = void (*)(Bench&);

// Process-global registry the BENCH macro populates. Runs execute in sorted
// name order regardless of registration (link) order, so output is stable.
class BenchSuite {
 public:
  static BenchSuite& global();

  void add(const std::string& name, BenchFn fn);
  std::vector<std::string> names() const;

  // Runs every registered benchmark whose name contains `filter` (empty =
  // all); returns results sorted by (name, config, threads).
  std::vector<BenchResult> run_all(const std::string& filter = "");

  // Monotonic nanosecond clock used for all measurements. Tests inject a
  // fake to make measured durations deterministic; nullptr restores the
  // steady_clock default.
  using ClockFn = std::int64_t (*)();
  static void set_clock_for_test(ClockFn clock);
  static std::int64_t now_ns();

 private:
  friend class Bench;
  void record(BenchResult result);

  std::vector<std::pair<std::string, BenchFn>> benches_;
  std::vector<BenchResult> results_;
};

// Exact quantile by linear interpolation over sorted `sorted_ms` (q in
// [0,1]). Exposed for the metrics reservoir and tests.
double exact_quantile(const std::vector<double>& sorted_ms, double q);

// Standard bench-binary main: reads its knobs first (a malformed one is
// one stderr line and return value 2, see util/config.h), parses --json/--filter/--list, installs trace/profile sessions from env
// (A3CS_TRACE*, A3CS_PROFILE, A3CS_PROFILE_CHROME), runs the suite, prints
// the result table, and writes the JSON artifact when requested.
int run_bench_main(const std::string& suite_name, int argc, char** argv);

}  // namespace a3cs::obs::perf

#define A3CS_BENCH_CONCAT_INNER(a, b) a##b
#define A3CS_BENCH_CONCAT(a, b) A3CS_BENCH_CONCAT_INNER(a, b)

namespace a3cs::obs::perf {
struct BenchRegistrar {
  BenchRegistrar(const char* name, BenchFn fn) {
    BenchSuite::global().add(name, fn);
  }
};
}  // namespace a3cs::obs::perf

// Registers a benchmark body: BENCH("gemm") { b.run([&]{ ... }); }
// The body receives `a3cs::obs::perf::Bench& b`.
#define BENCH(name)                                                       \
  static void A3CS_BENCH_CONCAT(a3cs_bench_fn_, __LINE__)(                \
      ::a3cs::obs::perf::Bench&);                                         \
  static ::a3cs::obs::perf::BenchRegistrar A3CS_BENCH_CONCAT(             \
      a3cs_bench_reg_, __LINE__)(name,                                    \
                                 &A3CS_BENCH_CONCAT(a3cs_bench_fn_,       \
                                                    __LINE__));           \
  static void A3CS_BENCH_CONCAT(a3cs_bench_fn_,                           \
                                __LINE__)(::a3cs::obs::perf::Bench & b)
