#include "fleet/protocol.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "util/config.h"

namespace a3cs::fleet {

namespace {

// Splits on single spaces. Wire fields never contain spaces (arch/accel
// encodings are dash/semicolon-separated), except the free-text diverged
// reason, which is always last and re-joined by the caller.
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// "key=value" -> value, or empty when the field is not that key.
std::string field_value(const std::string& tok, const char* key) {
  const std::string prefix = std::string(key) + "=";
  if (tok.rfind(prefix, 0) != 0) return std::string();
  return tok.substr(prefix.size());
}

}  // namespace

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string format_heartbeat(int shard, std::int64_t iter,
                             std::int64_t frames) {
  std::ostringstream out;
  out << "hb " << shard << " iter=" << iter << " frames=" << frames << "\n";
  return out.str();
}

std::string format_point(const ParetoPoint& p) {
  std::ostringstream out;
  out << "point " << p.shard << " iter=" << p.iter << " frames=" << p.frames
      << " score=" << format_double(p.score) << " fps=" << format_double(p.fps)
      << " dsp=" << p.dsp << " arch=" << p.arch << " accel=" << p.accel
      << "\n";
  return out.str();
}

std::string format_diverged(int shard, std::int64_t iter,
                            const std::string& reason) {
  std::ostringstream out;
  out << "diverged " << shard << " iter=" << iter << " " << reason << "\n";
  return out.str();
}

std::string format_done(int shard, std::int64_t iter, std::int64_t frames) {
  std::ostringstream out;
  out << "done " << shard << " iter=" << iter << " frames=" << frames << "\n";
  return out.str();
}

Msg parse_message(const std::string& line) {
  Msg msg;
  const std::vector<std::string> fields = split_fields(line);
  if (fields.size() < 2) return msg;

  const std::optional<std::int64_t> shard64 = util::to_int(fields[1]);
  if (!shard64 || *shard64 < 0 || *shard64 > util::kIntMax) return msg;
  const int shard = static_cast<int>(*shard64);

  // Common iter=/frames= fields (position-independent past the shard).
  std::optional<std::int64_t> iter, frames;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    std::string v = field_value(fields[i], "iter");
    if (!v.empty()) iter = util::to_int(v);
    v = field_value(fields[i], "frames");
    if (!v.empty()) frames = util::to_int(v);
  }

  if (fields[0] == "hb") {
    if (!iter || !frames) return msg;
    msg.kind = MsgKind::kHeartbeat;
  } else if (fields[0] == "done") {
    if (!iter || !frames) return msg;
    msg.kind = MsgKind::kDone;
  } else if (fields[0] == "diverged") {
    if (!iter) return msg;
    msg.kind = MsgKind::kDiverged;
    // Reason = everything after the iter= field, re-joined.
    std::string reason;
    bool past_iter = false;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      if (!past_iter) {
        if (!field_value(fields[i], "iter").empty()) past_iter = true;
        continue;
      }
      if (!reason.empty()) reason += ' ';
      reason += fields[i];
    }
    msg.reason = reason;
  } else if (fields[0] == "point") {
    ParetoPoint p;
    p.shard = shard;
    std::optional<double> score, fps;
    std::optional<std::int64_t> dsp;
    bool have_arch = false, have_accel = false;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      std::string v;
      if (!(v = field_value(fields[i], "score")).empty()) {
        score = util::to_double(v);
      } else if (!(v = field_value(fields[i], "fps")).empty()) {
        fps = util::to_double(v);
      } else if (!(v = field_value(fields[i], "dsp")).empty()) {
        dsp = util::to_int(v);
      } else if (!(v = field_value(fields[i], "arch")).empty()) {
        p.arch = v;
        have_arch = true;
      } else if (!(v = field_value(fields[i], "accel")).empty()) {
        p.accel = v;
        have_accel = true;
      }
    }
    if (!iter || !frames || !score || !fps || !dsp || !have_arch ||
        !have_accel) {
      return msg;
    }
    p.iter = *iter;
    p.frames = *frames;
    p.score = *score;
    p.fps = *fps;
    p.dsp = static_cast<int>(*dsp);
    msg.kind = MsgKind::kPoint;
    msg.point = p;
  } else {
    return msg;
  }

  msg.shard = shard;
  msg.iter = *iter;
  msg.frames = frames.value_or(0);
  return msg;
}

}  // namespace a3cs::fleet
