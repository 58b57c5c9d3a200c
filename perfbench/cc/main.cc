// a3cs_perfbench: one run of one end-to-end workload.
//
//   a3cs_perfbench --workload cosearch|train_eval|serve --seed N
//                  --seconds S --trace 0|1 --work-dir DIR [--server PATH]
//                  [--setup-probe 1]
//
// Prints a human-readable summary on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"} where
// metrics maps the name of every value the run measured to the value.
// Exits 1 when a correctness check or a step failed. perfbench/run.py builds
// this binary, keeps the metrics BENCHMARK.json names for the run's mode and
// is the command to use (see perfbench/README.md). --setup-probe is how the
// binary times its own cold start (child.h).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "bench.h"

namespace {

using perfbench::Outcome;

int usage() {
  std::fprintf(stderr,
               "usage: a3cs_perfbench --workload cosearch|train_eval|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--server PATH] [--setup-probe 1]\n");
  return 2;
}

void print_json(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  const char* sep = "";
  for (const auto& [name, v] : out.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(v) ? v : 0.0);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--server") {
      opt.server_path = value;
    } else if (key == "--setup-probe" && value == "1") {
      opt.setup_probe = true;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || opt.seconds <= 0.0 ||
      opt.work_dir.empty()) {
    return usage();
  }

  Outcome out;
  try {
    if (opt.workload == "cosearch") {
      out = perfbench::run_cosearch(opt);
    } else if (opt.workload == "train_eval") {
      out = perfbench::run_train_eval(opt);
    } else if (opt.workload == "serve") {
      if (opt.server_path.empty()) return usage();
      out = perfbench::run_serve(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a3cs_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.setup_probe) return 0;

  auto& m = out.metrics;
  if (out.attempted > 0) {
    m["fail_frac"] = static_cast<double>(out.failed) /
                     static_cast<double>(out.attempted);
  }
  if (m.count("trace.items_per_s") != 0 &&
      m["trace.untraced_items_per_s"] > 0) {
    const double ratio =
        m["trace.items_per_s"] / m["trace.untraced_items_per_s"];
    m["trace.overhead_pct"] = 100.0 * (1.0 - ratio);
  }
  std::fprintf(stderr, "%s seed %llu%s: %lld steps attempted, %lld failed\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? " (traced)" : "",
               static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed));
  for (const auto& [name, value] : m) {
    std::fprintf(stderr, "  %-32s %.6g\n", name.c_str(), value);
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  print_json(out);
  return out.correct && out.failed == 0 ? 0 : 1;
}
