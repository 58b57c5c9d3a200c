// Schema-versioned BENCH_*.json artifacts and the regression-diff engine
// behind tools/bench_report.
//
// Document layout (schema_version 1):
//
//   {"schema_version":1,"suite":"kernels",
//    "meta":{"git_sha":...,"host":...,"threads":...,"scale":...,
//            "smoke":...,"wall_time":...,"hot_tu_flags":...},
//    "results":[{"name":"gemm","config":"m256_k256_n256","threads":1,
//                "repeats":12,"median_ms":...,"p10_ms":...,"p90_ms":...,
//                "mean_ms":...,"steady":true,"throughput":...,
//                "throughput_unit":"calls/s","flops":...,"bytes":...},...]}
//
// Rendering is byte-stable: fixed key order, results sorted by
// (name, config, threads), numbers via TraceWriter::append_json_number. Only
// meta.wall_time carries wall-clock data — every content field is
// deterministic given fixed inputs, so tests can compare rendered documents
// byte-for-byte.
//
// parse_bench_doc() is strict: missing required keys, a wrong schema_version,
// or mistyped fields throw std::runtime_error with the offending key, so a
// hand-edited baseline fails loudly instead of diffing garbage.
#pragma once

#include <string>
#include <vector>

#include "obs/perf/bench.h"
#include "obs/perf/run_meta.h"

namespace a3cs::obs {
class JsonValue;
}

namespace a3cs::obs::perf {

inline constexpr int kBenchSchemaVersion = 1;

struct BenchDoc {
  int schema_version = kBenchSchemaVersion;
  std::string suite;
  RunMeta meta;
  std::vector<BenchResult> results;  // sorted by (name, config, threads)
};

// Renders the full document (trailing newline included).
std::string render_bench_json(const BenchDoc& doc);

// Strict parse; throws std::runtime_error on any schema violation.
BenchDoc parse_bench_doc(const JsonValue& root);
// Reads + parses a file; throws std::runtime_error when unreadable/invalid.
BenchDoc parse_bench_file(const std::string& path);

// Renders `doc` to `path` (truncate); throws on I/O failure.
void write_bench_file(const std::string& path, const BenchDoc& doc);

// One row of a baseline-vs-current comparison, keyed by
// (name, config, threads).
struct DiffRow {
  enum class Verdict {
    kOk,         // |delta| within threshold
    kImproved,   // median dropped by more than the threshold
    kRegressed,  // median rose by more than the threshold
    kNew,        // present in current only
    kMissing,    // present in baseline only
  };

  std::string key;  // "name/config/t<threads>"
  double baseline_median_ms = 0.0;
  double current_median_ms = 0.0;
  double delta_pct = 0.0;  // 100 * (current - baseline) / baseline
  // Derived throughput (0 when the row carries none). The unit comes from
  // the current run, falling back to the baseline for kMissing rows.
  double baseline_throughput = 0.0;
  double current_throughput = 0.0;
  std::string throughput_unit;
  Verdict verdict = Verdict::kOk;
};

const char* verdict_name(DiffRow::Verdict v);

// Compares `current` against `baseline`. A row regresses when its median
// rises more than `max_regress_pct` percent; it improves when the median
// drops more than the same threshold. Rows come back sorted by key.
std::vector<DiffRow> diff_baselines(const BenchDoc& baseline,
                                    const BenchDoc& current,
                                    double max_regress_pct);

// True when any row is kRegressed (kMissing counts as a failure too when
// `missing_fails` — a silently dropped bench must not pass the gate).
bool diff_has_failure(const std::vector<DiffRow>& rows,
                      bool missing_fails = true);

}  // namespace a3cs::obs::perf
