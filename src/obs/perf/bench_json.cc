#include "obs/perf/bench_json.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/jsonl.h"
#include "obs/trace.h"

namespace a3cs::obs::perf {

namespace {

void append_result_json(std::string& out, const BenchResult& r) {
  out += "{\"name\":";
  TraceWriter::append_json_string(out, r.name);
  out += ",\"config\":";
  TraceWriter::append_json_string(out, r.config);
  out += ",\"threads\":" + std::to_string(r.threads);
  out += ",\"repeats\":" + std::to_string(r.repeats);
  out += ",\"median_ms\":";
  TraceWriter::append_json_number(out, r.median_ms);
  out += ",\"p10_ms\":";
  TraceWriter::append_json_number(out, r.p10_ms);
  out += ",\"p90_ms\":";
  TraceWriter::append_json_number(out, r.p90_ms);
  out += ",\"mean_ms\":";
  TraceWriter::append_json_number(out, r.mean_ms);
  out += r.steady ? ",\"steady\":true" : ",\"steady\":false";
  out += ",\"throughput\":";
  TraceWriter::append_json_number(out, r.throughput);
  out += ",\"throughput_unit\":";
  TraceWriter::append_json_string(out, r.throughput_unit);
  out += ",\"flops\":" + std::to_string(r.flops);
  out += ",\"bytes\":" + std::to_string(r.bytes);
  out += "}";
}

[[noreturn]] void schema_error(const std::string& what) {
  throw std::runtime_error("bench json schema: " + what);
}

double require_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    schema_error("missing or non-numeric \"" + key + "\"");
  }
  return v->as_number();
}

std::string require_string(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    schema_error("missing or non-string \"" + key + "\"");
  }
  return v->as_string();
}

bool require_bool(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind() != JsonValue::Kind::kBool) {
    schema_error("missing or non-boolean \"" + key + "\"");
  }
  return v->as_bool();
}

std::string row_key(const std::string& name, const std::string& config,
                    int threads) {
  return name + "/" + config + "/t" + std::to_string(threads);
}

}  // namespace

std::string render_bench_json(const BenchDoc& doc) {
  std::vector<BenchResult> results = doc.results;
  std::sort(results.begin(), results.end(),
            [](const BenchResult& a, const BenchResult& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.config != b.config) return a.config < b.config;
              return a.threads < b.threads;
            });
  std::string out = "{\"schema_version\":" +
                    std::to_string(doc.schema_version) + ",\"suite\":";
  TraceWriter::append_json_string(out, doc.suite);
  out += ",\n\"meta\":" + render_meta_json(doc.meta);
  out += ",\n\"results\":[";
  bool first = true;
  for (const BenchResult& r : results) {
    out += first ? "\n" : ",\n";
    first = false;
    append_result_json(out, r);
  }
  out += "\n]}\n";
  return out;
}

BenchDoc parse_bench_doc(const JsonValue& root) {
  if (!root.is_object()) schema_error("document is not an object");
  BenchDoc doc;
  doc.schema_version = static_cast<int>(require_number(root, "schema_version"));
  if (doc.schema_version != kBenchSchemaVersion) {
    schema_error("unsupported schema_version " +
                 std::to_string(doc.schema_version) + " (expected " +
                 std::to_string(kBenchSchemaVersion) + ")");
  }
  doc.suite = require_string(root, "suite");

  const JsonValue* meta = root.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    schema_error("missing \"meta\" object");
  }
  doc.meta.git_sha = require_string(*meta, "git_sha");
  doc.meta.host = require_string(*meta, "host");
  doc.meta.threads = static_cast<int>(require_number(*meta, "threads"));
  doc.meta.scale = require_number(*meta, "scale");
  doc.meta.smoke = require_bool(*meta, "smoke");
  doc.meta.wall_time = require_string(*meta, "wall_time");
  doc.meta.hot_tu_flags = meta->string_or("hot_tu_flags", "");

  const JsonValue* results = root.find("results");
  if (results == nullptr || results->kind() != JsonValue::Kind::kArray) {
    schema_error("missing \"results\" array");
  }
  for (const JsonValue& item : results->as_array()) {
    if (!item.is_object()) schema_error("results entry is not an object");
    BenchResult r;
    r.name = require_string(item, "name");
    r.config = require_string(item, "config");
    r.threads = static_cast<int>(require_number(item, "threads"));
    r.repeats = static_cast<int>(require_number(item, "repeats"));
    r.median_ms = require_number(item, "median_ms");
    r.p10_ms = require_number(item, "p10_ms");
    r.p90_ms = require_number(item, "p90_ms");
    r.mean_ms = require_number(item, "mean_ms");
    r.steady = require_bool(item, "steady");
    r.throughput = require_number(item, "throughput");
    r.throughput_unit = require_string(item, "throughput_unit");
    r.flops = static_cast<std::int64_t>(require_number(item, "flops"));
    r.bytes = static_cast<std::int64_t>(require_number(item, "bytes"));
    if (r.median_ms < 0.0 || r.repeats < 0) {
      schema_error("negative median_ms/repeats for \"" + r.name + "\"");
    }
    doc.results.push_back(std::move(r));
  }
  return doc;
}

BenchDoc parse_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("bench json: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_bench_doc(JsonValue::parse(buf.str()));
}

void write_bench_file(const std::string& path, const BenchDoc& doc) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    throw std::runtime_error("bench json: cannot write " + path);
  }
  out << render_bench_json(doc);
  if (!out.good()) {
    throw std::runtime_error("bench json: write failed for " + path);
  }
}

const char* verdict_name(DiffRow::Verdict v) {
  switch (v) {
    case DiffRow::Verdict::kOk:
      return "ok";
    case DiffRow::Verdict::kImproved:
      return "improved";
    case DiffRow::Verdict::kRegressed:
      return "REGRESSED";
    case DiffRow::Verdict::kNew:
      return "new";
    case DiffRow::Verdict::kMissing:
      return "MISSING";
  }
  return "?";
}

std::vector<DiffRow> diff_baselines(const BenchDoc& baseline,
                                    const BenchDoc& current,
                                    double max_regress_pct) {
  std::map<std::string, const BenchResult*> base_rows;
  for (const BenchResult& r : baseline.results) {
    base_rows[row_key(r.name, r.config, r.threads)] = &r;
  }
  std::map<std::string, const BenchResult*> cur_rows;
  for (const BenchResult& r : current.results) {
    cur_rows[row_key(r.name, r.config, r.threads)] = &r;
  }

  std::vector<DiffRow> rows;
  for (const auto& [key, base] : base_rows) {
    DiffRow row;
    row.key = key;
    row.baseline_median_ms = base->median_ms;
    row.baseline_throughput = base->throughput;
    row.throughput_unit = base->throughput_unit;
    const auto it = cur_rows.find(key);
    if (it == cur_rows.end()) {
      row.verdict = DiffRow::Verdict::kMissing;
      rows.push_back(std::move(row));
      continue;
    }
    row.current_median_ms = it->second->median_ms;
    row.current_throughput = it->second->throughput;
    if (!it->second->throughput_unit.empty()) {
      row.throughput_unit = it->second->throughput_unit;
    }
    if (base->median_ms > 0.0) {
      row.delta_pct = 100.0 * (row.current_median_ms - base->median_ms) /
                      base->median_ms;
    }
    if (row.delta_pct > max_regress_pct) {
      row.verdict = DiffRow::Verdict::kRegressed;
    } else if (row.delta_pct < -max_regress_pct) {
      row.verdict = DiffRow::Verdict::kImproved;
    } else {
      row.verdict = DiffRow::Verdict::kOk;
    }
    rows.push_back(std::move(row));
  }
  for (const auto& [key, cur] : cur_rows) {
    if (base_rows.find(key) != base_rows.end()) continue;
    DiffRow row;
    row.key = key;
    row.current_median_ms = cur->median_ms;
    row.current_throughput = cur->throughput;
    row.throughput_unit = cur->throughput_unit;
    row.verdict = DiffRow::Verdict::kNew;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const DiffRow& a, const DiffRow& b) { return a.key < b.key; });
  return rows;
}

bool diff_has_failure(const std::vector<DiffRow>& rows, bool missing_fails) {
  for (const DiffRow& row : rows) {
    if (row.verdict == DiffRow::Verdict::kRegressed) return true;
    if (missing_fails && row.verdict == DiffRow::Verdict::kMissing) {
      return true;
    }
  }
  return false;
}

}  // namespace a3cs::obs::perf
