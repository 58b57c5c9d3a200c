#include "ckpt/manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".a3ck";
constexpr int kIterDigits = 9;

// Parses "<prefix><digits><suffix>" -> iteration, or -1 when the name does
// not belong to the ring (stray files are never touched by pruning).
std::int64_t parse_iter(const std::string& filename) {
  const std::size_t plen = std::string(kPrefix).size();
  const std::size_t slen = std::string(kSuffix).size();
  if (filename.size() <= plen + slen) return -1;
  if (filename.compare(0, plen, kPrefix) != 0) return -1;
  if (filename.compare(filename.size() - slen, slen, kSuffix) != 0) return -1;
  const std::string digits =
      filename.substr(plen, filename.size() - plen - slen);
  const std::optional<std::int64_t> v = util::to_int(digits);
  return v && digits[0] != '-' ? *v : -1;
}

}  // namespace

CkptConfig CkptConfig::with_env_overrides() const {
  CkptConfig out = *this;
  out.dir = util::env_string("A3CS_CKPT_DIR", out.dir);
  out.every_iters = static_cast<int>(util::env_int(
      "A3CS_CKPT_EVERY_ITERS", out.every_iters, 0, util::kIntMax));
  out.every_seconds = util::env_double(
      "A3CS_CKPT_EVERY_SECONDS", out.every_seconds, 0, util::kDoubleMax);
  out.keep = static_cast<int>(
      util::env_int("A3CS_CKPT_KEEP", out.keep, 1, util::kIntMax));
  out.resume = util::env_flag("A3CS_CKPT_RESUME", out.resume);
  return out;
}

CheckpointManager::CheckpointManager(CkptConfig cfg, int threads)
    : cfg_(std::move(cfg)), commit_(threads) {
  A3CS_CHECK(cfg_.enabled(), "CheckpointManager: empty checkpoint directory");
  A3CS_CHECK(cfg_.keep >= 1, "CheckpointManager: keep must be >= 1");
  fs::create_directories(cfg_.dir);

  // Sweep orphaned atomic-write staging files: a worker killed between
  // util::atomic_write_file's write and its rename leaves "<name>.a3ck.tmp"
  // behind. They are never valid checkpoints (rename is what publishes one),
  // so deleting them on startup is always safe; without the sweep, a
  // frequently restarted fleet shard accumulates one torn file per kill.
  // Only ".a3ck.tmp" names are touched — stray user files stay untouched,
  // mirroring the pruning policy of scan().
  static obs::Counter& tmp_swept =
      obs::MetricsRegistry::global().counter("ckpt.tmp_swept");
  const std::string kTmpTail = std::string(kSuffix) + ".tmp";
  std::error_code dir_ec;
  for (const auto& entry : fs::directory_iterator(cfg_.dir, dir_ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kTmpTail.size() ||
        name.compare(name.size() - kTmpTail.size(), kTmpTail.size(),
                     kTmpTail) != 0) {
      continue;
    }
    std::error_code ec;
    if (fs::remove(entry.path(), ec)) {
      tmp_swept.inc();
      A3CS_LOG(WARN) << "checkpoint dir " << cfg_.dir
                     << ": swept orphaned staging file " << name
                     << " (previous writer died mid-commit)";
    }
  }
}

std::string CheckpointManager::path_for(std::int64_t iter) const {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%0*lld", kIterDigits,
                static_cast<long long>(iter));
  return cfg_.dir + "/" + kPrefix + digits + kSuffix;
}

std::size_t CheckpointManager::commit(std::int64_t iter,
                                      const SectionWriter& writer) {
  wait();
  return write_and_prune(iter, writer);
}

void CheckpointManager::commit_async(
    std::int64_t iter, const std::function<void(SectionWriter&)>& snapshot,
    std::function<void(const CommitStats&)> durable) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  };
  const Clock::time_point t0 = Clock::now();
  wait();  // at most one commit in flight
  auto writer = std::make_shared<SectionWriter>();
  snapshot(*writer);
  const double write_ms = ms_since(t0);
  commit_.start([this, iter, writer, write_ms, ms_since,
                 durable = std::move(durable)] {
    const Clock::time_point t1 = Clock::now();
    CommitStats stats;
    try {
      stats.bytes = write_and_prune(iter, *writer);
    } catch (const std::exception& e) {
      throw std::runtime_error("checkpoint commit of " + path_for(iter) +
                               " failed: " + e.what());
    }
    stats.write_ms = write_ms;
    stats.sync_ms = ms_since(t1);
    durable(stats);
  });
}

void CheckpointManager::wait() { commit_.wait(); }

std::size_t CheckpointManager::write_and_prune(std::int64_t iter,
                                               const SectionWriter& writer) {
  const std::string bytes = writer.encode();
  util::atomic_write_file(path_for(iter), bytes);

  // Prune the ring: keep the newest cfg_.keep checkpoints.
  std::vector<std::int64_t> iters = scan();
  if (static_cast<int>(iters.size()) > cfg_.keep) {
    const std::size_t drop = iters.size() - static_cast<std::size_t>(cfg_.keep);
    for (std::size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      fs::remove(path_for(iters[i]), ec);  // best-effort
    }
  }
  return bytes.size();
}

std::vector<std::int64_t> CheckpointManager::list() {
  wait();
  return scan();
}

std::vector<std::int64_t> CheckpointManager::scan() const {
  std::vector<std::int64_t> iters;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    const std::int64_t it = parse_iter(entry.path().filename().string());
    if (it >= 0) iters.push_back(it);
  }
  std::sort(iters.begin(), iters.end());
  return iters;
}

std::int64_t CheckpointManager::load_newest_valid(SectionReader* out,
                                                  int* fallbacks,
                                                  bool require_healthy) {
  static obs::Counter& fallback_counter =
      obs::MetricsRegistry::global().counter("ckpt.fallbacks");
  static obs::Counter& unhealthy_counter =
      obs::MetricsRegistry::global().counter("ckpt.unhealthy_skips");
  const std::vector<std::int64_t> iters = list();
  int skipped = 0;
  for (auto it = iters.rbegin(); it != iters.rend(); ++it) {
    const std::string path = path_for(*it);
    try {
      SectionReader reader = SectionReader::from_file(path);
      if (require_healthy && !reader.healthy()) {
        A3CS_LOG(WARN) << "checkpoint " << path
                       << " is tagged unhealthy, falling back";
        unhealthy_counter.inc();
        ++skipped;
        continue;
      }
      if (fallbacks != nullptr) *fallbacks = skipped;
      if (out != nullptr) *out = std::move(reader);
      return *it;
    } catch (const std::exception& e) {
      A3CS_LOG(WARN) << "checkpoint " << path
                     << " failed validation, falling back: " << e.what();
      fallback_counter.inc();
      ++skipped;
    }
  }
  if (fallbacks != nullptr) *fallbacks = skipped;
  return -1;
}

int CheckpointManager::remove_newer_than(std::int64_t iter) {
  int removed = 0;
  for (const std::int64_t it : list()) {
    if (it <= iter) continue;
    std::error_code ec;
    if (fs::remove(path_for(it), ec)) ++removed;
  }
  return removed;
}

void CheckpointManager::tear_tip(std::error_code& ec) {
  const std::vector<std::int64_t> iters = list();
  if (iters.empty()) return;
  const std::string path = path_for(iters.back());
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!ec) fs::resize_file(path, size / 2, ec);
  if (ec) return;
  A3CS_LOG(WARN) << "fault injection: truncated checkpoint " << path << " to "
                 << size / 2 << " bytes";
}

}  // namespace a3cs::ckpt
