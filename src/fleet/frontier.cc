#include "fleet/frontier.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "fleet/protocol.h"
#include "util/config.h"

namespace a3cs::fleet {

bool point_less(const ParetoPoint& a, const ParetoPoint& b) {
  // score and fps descend (best first); everything else ascends.
  if (a.score != b.score) return a.score > b.score;
  if (a.fps != b.fps) return a.fps > b.fps;
  return std::tie(a.dsp, a.shard, a.iter, a.frames, a.arch, a.accel) <
         std::tie(b.dsp, b.shard, b.iter, b.frames, b.arch, b.accel);
}

bool dominates(const ParetoPoint& q, const ParetoPoint& p) {
  if (q.score < p.score || q.fps < p.fps || q.dsp > p.dsp) return false;
  return q.score > p.score || q.fps > p.fps || q.dsp < p.dsp;
}

bool FrontierSet::insert(const ParetoPoint& p) {
  return points_.emplace(format_point(p), p).second;
}

int FrontierSet::erase_shard(int shard) {
  int erased = 0;
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second.shard == shard) {
      it = points_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

int FrontierSet::count_for_shard(int shard) const {
  int n = 0;
  for (const auto& [key, p] : points_) {
    if (p.shard == shard) ++n;
  }
  return n;
}

std::vector<ParetoPoint> FrontierSet::frontier() const {
  std::vector<ParetoPoint> all;
  all.reserve(points_.size());
  for (const auto& [key, p] : points_) all.push_back(p);

  std::vector<ParetoPoint> keep;
  for (const ParetoPoint& p : all) {
    bool dominated = false;
    for (const ParetoPoint& q : all) {
      if (dominates(q, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) keep.push_back(p);
  }
  std::sort(keep.begin(), keep.end(), point_less);
  return keep;
}

std::string render_frontier(const std::vector<ParetoPoint>& frontier) {
  std::ostringstream out;
  out << "# a3cs-fleet-frontier v1\n";
  out << "points " << frontier.size() << "\n";
  for (const ParetoPoint& p : frontier) out << format_point(p);
  return out.str();
}

std::vector<ParetoPoint> parse_frontier(const std::string& text) {
  std::istringstream in(text);
  std::vector<ParetoPoint> out;
  std::string line;
  std::int64_t declared = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("points ", 0) == 0) {
      declared = util::parse_int("frontier points", line.substr(7), 0,
                                 util::kInt64Max);
      continue;
    }
    const Msg msg = parse_message(line);
    if (msg.kind != MsgKind::kPoint) {
      throw std::runtime_error("parse_frontier: bad line '" + line + "'");
    }
    out.push_back(msg.point);
  }
  if (declared >= 0 && declared != static_cast<std::int64_t>(out.size())) {
    throw std::runtime_error("parse_frontier: truncated frontier (declared " +
                             std::to_string(declared) + ", found " +
                             std::to_string(out.size()) + ")");
  }
  return out;
}

}  // namespace a3cs::fleet
