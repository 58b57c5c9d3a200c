#include "serve/protocol.h"

#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "accel/config_io.h"
#include "nn/zoo.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/config.h"

namespace a3cs::serve {

namespace {

void append_key(std::string& out, std::string_view key) {
  obs::TraceWriter::append_json_string(out, key);
  out += ':';
}

void append_kv_num(std::string& out, std::string_view key, double v) {
  append_key(out, key);
  obs::append_json_number_exact(out, v);
  out += ',';
}

void append_kv_str(std::string& out, std::string_view key,
                   std::string_view v) {
  append_key(out, key);
  obs::TraceWriter::append_json_string(out, v);
  out += ',';
}

void append_kv_bool(std::string& out, std::string_view key, bool v) {
  append_key(out, key);
  out += v ? "true" : "false";
  out += ',';
}

// Echoes the request's "id" (number or string) into the reply so pipelined
// clients can match replies to requests.
void append_id(std::string& out, const obs::JsonValue* id) {
  if (id == nullptr) return;
  if (id->is_number()) {
    append_kv_num(out, "id", id->as_number());
  } else if (id->is_string()) {
    append_kv_str(out, "id", id->as_string());
  }
}

std::string error_reply(const obs::JsonValue* id, const std::string& message) {
  std::string out = "{\"ok\":false,";
  append_id(out, id);
  append_key(out, "error");
  obs::TraceWriter::append_json_string(out, message);
  out += '}';
  return out;
}

// A request dimension or count: a finite whole number >= 1 that fits int.
int positive_int(const obs::JsonValue& v, const std::string& field) {
  const double d = v.is_number() ? v.as_number() : 0.0;
  if (d >= 1 && d <= util::kIntMax && d == std::floor(d)) {
    return static_cast<int>(d);
  }
  throw std::runtime_error("\"" + field + "\" must be an integer >= 1");
}

// Resolves the request's network selector into a registry entry.
const NetworkRegistry::Entry& resolve_network(NetworkRegistry& registry,
                                              const obs::JsonValue& req) {
  const obs::JsonValue* name = req.find("network");
  if (name == nullptr || !name->is_string()) {
    throw std::runtime_error("missing string field \"network\"");
  }
  nn::ObsSpec obs{3, 12, 12};
  if (const obs::JsonValue* o = req.find("obs")) {
    const auto& arr = o->as_array();
    if (arr.size() != 3) {
      throw std::runtime_error("\"obs\" must be [channels,height,width]");
    }
    obs.channels = positive_int(arr[0], "obs[0]");
    obs.height = positive_int(arr[1], "obs[1]");
    obs.width = positive_int(arr[2], "obs[2]");
  }
  int actions = 4;
  if (const obs::JsonValue* a = req.find("actions")) {
    actions = positive_int(*a, "actions");
  }
  return registry.get(name->as_string(), obs, actions);
}

std::string handle_ping(const obs::JsonValue* id) {
  std::string out = "{\"ok\":true,";
  append_id(out, id);
  out += "\"op\":\"ping\"}";
  return out;
}

std::string handle_info(NetworkRegistry& registry, const obs::JsonValue& req,
                        const obs::JsonValue* id) {
  const NetworkRegistry::Entry& entry = resolve_network(registry, req);
  double macs = 0.0, weight_bytes = 0.0;
  for (const accel::LayerWorkload& wl : entry.prepared.net.layers) {
    macs += wl.macs;
    weight_bytes += wl.w_bytes;
  }
  std::string out = "{\"ok\":true,";
  append_id(out, id);
  append_kv_str(out, "op", "info");
  append_kv_num(out, "num_layers", entry.prepared.signature.num_layers);
  append_kv_num(out, "num_groups", entry.prepared.signature.num_groups);
  append_kv_num(out, "macs", macs);
  // 16-bit datapath: the workload's weight bytes are 2 per parameter.
  append_kv_num(out, "params", weight_bytes / 2.0);
  out.back() = '}';
  return out;
}

std::string handle_stats(const PredictorService& service,
                         const obs::JsonValue* id) {
  const MemoCache::Stats s = service.cache().stats();
  std::string out = "{\"ok\":true,";
  append_id(out, id);
  append_kv_str(out, "op", "stats");
  append_kv_bool(out, "cache_enabled", service.cache().enabled());
  append_kv_num(out, "hits", static_cast<double>(s.hits));
  append_kv_num(out, "misses", static_cast<double>(s.misses));
  append_kv_num(out, "inserts", static_cast<double>(s.inserts));
  append_kv_num(out, "evictions", static_cast<double>(s.evictions));
  append_kv_num(out, "size", static_cast<double>(s.size));
  append_kv_num(out, "capacity", static_cast<double>(s.capacity));
  append_kv_num(out, "hit_rate", s.hit_rate());
  out.back() = '}';
  return out;
}

std::string handle_eval(PredictorService& service, NetworkRegistry& registry,
                        const obs::JsonValue& req, const obs::JsonValue* id) {
  const auto t0 = std::chrono::steady_clock::now();
  const NetworkRegistry::Entry& entry = resolve_network(registry, req);
  const obs::JsonValue* cfgs = req.find("configs");
  if (cfgs == nullptr) {
    throw std::runtime_error("missing field \"configs\"");
  }
  std::vector<accel::AcceleratorConfig> configs;
  configs.reserve(cfgs->as_array().size());
  for (const obs::JsonValue& c : cfgs->as_array()) {
    configs.push_back(accel::decode_config(c.as_string()));
  }
  const std::vector<ServeResult> results =
      service.evaluate_batch(entry.prepared, configs);

  std::string out = "{\"ok\":true,";
  append_id(out, id);
  append_kv_str(out, "op", "eval");
  append_kv_num(out, "count", static_cast<double>(results.size()));
  append_key(out, "results");
  out += '[';
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ServeResult& r = results[i];
    if (i > 0) out += ',';
    out += '{';
    append_kv_bool(out, "feasible", r.eval().feasible);
    append_kv_num(out, "fps", r.eval().fps);
    append_kv_num(out, "ii_cycles", r.eval().ii_cycles);
    append_kv_num(out, "latency_cycles", r.eval().latency_cycles);
    append_kv_num(out, "energy_nj", r.eval().energy_nj);
    append_kv_num(out, "dsp", r.eval().dsp_used);
    append_kv_num(out, "bram", r.eval().bram_used);
    append_kv_num(out, "cost", r.cost());
    append_kv_bool(out, "cached", r.cached);
    out.back() = '}';
  }
  out += "],";
  const double dur_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  append_kv_num(out, "dur_ms", dur_ms);
  out.back() = '}';
  return out;
}

}  // namespace

const NetworkRegistry::Entry& NetworkRegistry::get(const std::string& name,
                                                   const nn::ObsSpec& obs,
                                                   int num_actions) {
  std::string key = name + '|' + std::to_string(obs.channels) + '|' +
                    std::to_string(obs.height) + '|' +
                    std::to_string(obs.width) + '|' +
                    std::to_string(num_actions);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.specs = nn::zoo_model_specs(name, obs, num_actions);
    entry.prepared = service_.prepare(entry.specs);
    it = entries_.emplace(std::move(key), std::move(entry)).first;
  }
  return it->second;
}

std::string handle_request_line(PredictorService& service,
                                NetworkRegistry& registry,
                                const std::string& line) {
  obs::JsonValue req;
  try {
    req = obs::JsonValue::parse(line);
  } catch (const std::exception& e) {
    return error_reply(nullptr, e.what());
  }
  if (!req.is_object()) {
    return error_reply(nullptr, "request must be a JSON object");
  }
  const obs::JsonValue* id = req.find("id");
  try {
    const obs::JsonValue* op = req.find("op");
    if (op == nullptr || !op->is_string()) {
      return error_reply(id, "missing string field \"op\"");
    }
    const std::string& opname = op->as_string();
    if (opname == "ping") return handle_ping(id);
    if (opname == "info") return handle_info(registry, req, id);
    if (opname == "stats") return handle_stats(service, id);
    if (opname == "eval") return handle_eval(service, registry, req, id);
    return error_reply(id, "unknown op \"" + opname + "\"");
  } catch (const std::exception& e) {
    return error_reply(id, e.what());
  }
}

// ------------------------------------------------------------ LineBuffer ----

namespace {

void note_line_overflow() {
  static obs::Counter& overflows =
      obs::MetricsRegistry::global().counter("serve.line_overflows");
  overflows.inc();
}

}  // namespace

LineBuffer::LineBuffer(std::size_t max_line_bytes)
    : max_(max_line_bytes == 0 ? 1 : max_line_bytes) {}

void LineBuffer::append(const char* data, std::size_t n) {
  std::size_t pos = 0;
  if (discarding_) {
    // Still inside an oversized line: eat bytes through its newline.
    while (pos < n && data[pos] != '\n') ++pos;
    if (pos == n) return;  // the whole chunk belongs to the doomed line
    ++pos;                 // consume the terminating '\n'
    discarding_ = false;
  }
  buf_.append(data + pos, n - pos);

  // Cap the unterminated tail: everything after the last '\n' is one
  // in-flight line; past the cap it can only ever be dropped, so drop now.
  const std::size_t last_nl = buf_.rfind('\n');
  const std::size_t tail_start = last_nl == std::string::npos ? 0 : last_nl + 1;
  if (buf_.size() - tail_start > max_) {
    buf_.resize(tail_start);
    discarding_ = true;
    overflow_pending_ = true;
    note_line_overflow();
  }
}

bool LineBuffer::next_line(std::string* out) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return false;
    if (nl > max_) {
      // A complete line over the cap (terminator arrived in the same chunk
      // as its overflowing body): drop it and keep scanning.
      buf_.erase(0, nl + 1);
      overflow_pending_ = true;
      note_line_overflow();
      continue;
    }
    out->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }
}

bool LineBuffer::take_overflow() {
  const bool pending = overflow_pending_;
  overflow_pending_ = false;
  return pending;
}

}  // namespace a3cs::serve
