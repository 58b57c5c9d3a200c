#include "fleet/supervisor.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/signal.h"
#include "fleet/protocol.h"
#include "fleet/worker.h"
#include "obs/metrics.h"
#include "obs/perf/chrome_trace.h"
#include "obs/trace.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::fleet {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// SIGCHLD self-pipe: the handler only writes one byte to wake poll(); all
// reaping happens on the main thread via waitpid(WNOHANG). The fd lives in
// an atomic so the handler never races handler (re)installation.
std::atomic<int> g_sigchld_wfd{-1};

extern "C" void sigchld_handler(int) {
  const int fd = g_sigchld_wfd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 'c';
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}

enum class WState { kPending, kRunning, kBackoff, kDone, kDropped, kDiverged };

struct WorkerSlot {
  ShardSpec spec;
  WState state = WState::kPending;
  pid_t pid = -1;
  int rfd = -1;
  std::string rbuf;
  int restarts = 0;
  int incarnations = 0;  // launched so far
  bool corrupt_applied = false;
  bool diverged_line = false;
  std::int64_t frames_target = 0;
  std::int64_t last_iter = 0;
  std::int64_t last_frames = 0;
  Clock::time_point last_hb;
  Clock::time_point backoff_until;
  std::string detail;
};

void trace_fleet(const char* kind, int shard, std::int64_t iter,
                 const std::string& detail) {
  if (!obs::trace_active()) return;
  obs::trace_event("fleet_event")
      .kv("kind", kind)
      .kv("shard", static_cast<std::int64_t>(shard))
      .kv("iter", iter)
      .kv("detail", detail);
}

// Truncates the newest ring checkpoint to half its size (the
// A3CS_FLEET_CORRUPT_TIP fault): resume must CRC-reject it and fall back
// down the ring.
void corrupt_tip_checkpoint(const std::string& ckpt_dir) {
  std::string newest;
  for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name.size() < 5 || name.substr(name.size() - 5) != ".a3ck") continue;
    if (name > newest) newest = name;  // 9-digit iters: lexical == numeric
  }
  if (newest.empty()) return;
  const fs::path path = fs::path(ckpt_dir) / newest;
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  A3CS_LOG(WARN) << "fleet fault: truncated tip checkpoint " << path.string()
                 << " to " << (size / 2) << " bytes";
}

class SupervisorImpl {
 public:
  SupervisorImpl(const FleetConfig& cfg, const FleetFaultInjector& faults)
      : cfg_(cfg), faults_(faults) {}

  FleetResult run();

 private:
  WorkerSlot* slot_by_pid(pid_t pid);
  std::string shard_dir(int shard) const;
  void spawn(WorkerSlot& w);
  void handle_line(WorkerSlot& w, const std::string& line);
  void drain_fd(WorkerSlot& w, bool to_eof);
  void reap_children();
  void on_exit(WorkerSlot& w, int status);
  void drop(WorkerSlot& w, WState state, const std::string& why);
  void check_heartbeats();
  void relaunch_due_backoffs();
  void handle_stop_request();
  bool try_grant();
  int active_count() const;

  const FleetConfig& cfg_;
  const FleetFaultInjector& faults_;
  std::vector<WorkerSlot> slots_;
  FrontierSet frontier_;
  FleetResult result_;
  std::int64_t budget_pool_ = 0;  // unspent frames from dropped shards
  bool granted_ = false;
  bool stop_sent_ = false;
};

WorkerSlot* SupervisorImpl::slot_by_pid(pid_t pid) {
  for (WorkerSlot& w : slots_) {
    if (w.pid == pid) return &w;
  }
  return nullptr;
}

std::string SupervisorImpl::shard_dir(int shard) const {
  return cfg_.out_dir + "/shard-" + std::to_string(shard);
}

int SupervisorImpl::active_count() const {
  int n = 0;
  for (const WorkerSlot& w : slots_) {
    if (w.state == WState::kPending || w.state == WState::kRunning ||
        w.state == WState::kBackoff) {
      ++n;
    }
  }
  return n;
}

void SupervisorImpl::spawn(WorkerSlot& w) {
  const std::string dir = shard_dir(w.spec.shard);
  fs::create_directories(dir + "/ckpt");

  int fds[2];
  A3CS_CHECK(::pipe2(fds, O_CLOEXEC) == 0, "fleet: pipe2 failed");

  WorkerOptions opts;
  opts.shard = w.spec.shard;
  opts.pipe_fd = fds[1];
  opts.game = cfg_.game;
  opts.num_cells = cfg_.num_cells;
  opts.num_envs = cfg_.num_envs;
  opts.rollout_len = cfg_.rollout_len;
  opts.das_samples = cfg_.das_samples;
  opts.tau_decay_frames = cfg_.tau_decay_frames;
  opts.total_frames = w.frames_target;
  opts.seed = w.spec.seed;
  opts.lambda = w.spec.lambda;
  opts.dsp_budget = w.spec.dsp_budget;
  opts.ckpt_dir = dir + "/ckpt";
  opts.ckpt_every = cfg_.ckpt_every_iters;
  opts.ckpt_keep = cfg_.ckpt_keep;
  opts.point_every = cfg_.point_every;
  opts.result_path = dir + "/result.txt";
  if (w.incarnations == 0) {  // faults fire on the first incarnation only
    opts.kill_at = faults_.kill_at(w.spec.shard);
    opts.hang_at = faults_.hang_at(w.spec.shard);
    opts.diverge_at = faults_.diverge_at(w.spec.shard);
  }
  const std::vector<std::string> args = worker_argv(opts);

  // Each worker traces to its own files beside the supervisor's: one shared
  // path would have every shard truncate and interleave the same file. A
  // respawn N >= 1 writes shard-K.iN.*, so the incarnation it replaces keeps
  // its trace.
  std::string shard_prefix =
      cfg_.out_dir + "/shard-" + std::to_string(w.spec.shard);
  if (w.incarnations > 0) {
    shard_prefix += ".i" + std::to_string(w.incarnations);
  }
  const std::string trace_path = shard_prefix + ".trace.jsonl";
  const std::string chrome_path = shard_prefix + ".chrome.json";
  const bool tracing = obs::trace_active();
  const bool chrome = obs::perf::chrome_trace_active();

  const pid_t pid = ::fork();
  A3CS_CHECK(pid >= 0, "fleet: fork failed");
  if (pid == 0) {
    // Child. Keep only the pipe's write end across exec.
    ::fcntl(fds[1], F_SETFD, 0);
    // Scrub inherited knobs that would make every shard behave identically
    // (or re-inject the fleet fault plan into restarted workers).
    for (const char* name :
         {"A3CS_CKPT_DIR", "A3CS_CKPT_EVERY_ITERS", "A3CS_CKPT_EVERY_SECONDS",
          "A3CS_CKPT_KEEP", "A3CS_CKPT_RESUME", "A3CS_FLEET_KILL",
          "A3CS_FLEET_HANG", "A3CS_FLEET_DIVERGE", "A3CS_FLEET_CORRUPT_TIP",
          "A3CS_FLEET_HB_S", "A3CS_FLEET_RESTARTS", "A3CS_FLEET_BACKOFF_S",
          "A3CS_FLEET_BACKOFF_MAX_S", "A3CS_FLEET_REALLOC",
          "A3CS_FLEET_POLL_MS", "A3CS_TRACE_PATH", "A3CS_PROFILE_CHROME"}) {
      ::unsetenv(name);
    }
    if (tracing) {
      ::setenv("A3CS_TRACE_PATH", trace_path.c_str(), 1);
    }
    if (chrome) {
      ::setenv("A3CS_PROFILE_CHROME", chrome_path.c_str(), 1);
    }
    std::vector<std::string> full;
    full.reserve(args.size() + 1);
    full.push_back(cfg_.worker_binary);
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (std::string& a : full) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(cfg_.worker_binary.c_str(), argv.data());
    std::_Exit(127);
  }

  // Parent.
  ::close(fds[1]);
  w.pid = pid;
  w.rfd = fds[0];
  w.rbuf.clear();
  w.diverged_line = false;
  w.last_hb = Clock::now();
  const bool restart = w.incarnations > 0;
  ++w.incarnations;
  w.state = WState::kRunning;
  ++result_.spawns;
  static obs::Counter& spawns =
      obs::MetricsRegistry::global().counter("fleet.spawns");
  spawns.inc();
  trace_fleet(restart ? "restart" : "spawn", w.spec.shard, w.last_iter,
              "pid=" + std::to_string(pid));
  A3CS_LOG(INFO) << "fleet: " << (restart ? "restarted" : "spawned")
                 << " shard " << w.spec.shard << " pid " << pid;
}

void SupervisorImpl::handle_line(WorkerSlot& w, const std::string& line) {
  const Msg msg = parse_message(line);
  w.last_hb = Clock::now();
  switch (msg.kind) {
    case MsgKind::kHeartbeat: {
      w.last_iter = msg.iter;
      w.last_frames = msg.frames;
      static obs::Counter& hbs =
          obs::MetricsRegistry::global().counter("fleet.heartbeats");
      hbs.inc();
      break;
    }
    case MsgKind::kPoint: {
      if (frontier_.insert(msg.point)) {
        static obs::Counter& points =
            obs::MetricsRegistry::global().counter("fleet.points");
        points.inc();
      }
      w.last_iter = msg.iter;
      w.last_frames = msg.frames;
      break;
    }
    case MsgKind::kDiverged: {
      w.diverged_line = true;
      w.detail = msg.reason;
      w.last_iter = msg.iter;
      break;
    }
    case MsgKind::kDone: {
      w.last_iter = msg.iter;
      w.last_frames = msg.frames;
      break;
    }
    case MsgKind::kUnknown:
      A3CS_LOG(WARN) << "fleet: unparseable line from shard " << w.spec.shard
                     << ": " << line;
      break;
  }
}

void SupervisorImpl::drain_fd(WorkerSlot& w, bool to_eof) {
  if (w.rfd < 0) return;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(w.rfd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a real error: nothing more to read now
    }
    if (n == 0) {
      ::close(w.rfd);
      w.rfd = -1;
      break;
    }
    w.rbuf.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = w.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      handle_line(w, w.rbuf.substr(start, nl - start));
      start = nl + 1;
    }
    w.rbuf.erase(0, start);
    if (!to_eof) break;
  }
}

void SupervisorImpl::drop(WorkerSlot& w, WState state,
                          const std::string& why) {
  w.state = state;
  w.detail = why;
  const int purged = frontier_.erase_shard(w.spec.shard);
  if (cfg_.reallocate_budget) {
    budget_pool_ += std::max<std::int64_t>(0, w.frames_target - w.last_frames);
  }
  ++result_.drops;
  static obs::Counter& drops =
      obs::MetricsRegistry::global().counter("fleet.drops");
  drops.inc();
  trace_fleet("drop", w.spec.shard, w.last_iter,
              why + " (purged " + std::to_string(purged) + " points)");
  A3CS_LOG(WARN) << "fleet: dropped shard " << w.spec.shard << ": " << why
                 << " (purged " << purged << " points)";
}

void SupervisorImpl::on_exit(WorkerSlot& w, int status) {
  drain_fd(w, /*to_eof=*/true);
  w.pid = -1;

  const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const bool diverged =
      w.diverged_line ||
      (WIFEXITED(status) && WEXITSTATUS(status) == kExitDiverged);
  if (clean) {
    w.state = WState::kDone;
    trace_fleet("done", w.spec.shard, w.last_iter,
                "frames=" + std::to_string(w.last_frames));
    A3CS_LOG(INFO) << "fleet: shard " << w.spec.shard << " done at iter "
                   << w.last_iter;
    return;
  }
  if (diverged) {
    ++result_.diverged;
    drop(w, WState::kDiverged,
         w.detail.empty() ? "diverged (watchdog abort)" : w.detail);
    return;
  }

  // Crash (injected kill, SIGKILL after a hung heartbeat, OOM, ...):
  // restart from the shard's checkpoint ring with exponential backoff.
  ++w.restarts;
  if (w.restarts > cfg_.restart_budget) {
    drop(w, WState::kDropped,
         "restart budget exhausted (" + std::to_string(cfg_.restart_budget) +
             ")");
    return;
  }
  if (faults_.corrupt_tip(w.spec.shard) && !w.corrupt_applied) {
    corrupt_tip_checkpoint(shard_dir(w.spec.shard) + "/ckpt");
    w.corrupt_applied = true;
  }
  const double delay = std::min(
      cfg_.backoff_max_s, cfg_.backoff_base_s * (1 << (w.restarts - 1)));
  w.state = WState::kBackoff;
  w.backoff_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(delay));
  ++result_.restarts;
  static obs::Counter& restarts =
      obs::MetricsRegistry::global().counter("fleet.restarts");
  restarts.inc();
  trace_fleet("exit", w.spec.shard, w.last_iter,
              "status=" + std::to_string(status) + " restart " +
                  std::to_string(w.restarts) + "/" +
                  std::to_string(cfg_.restart_budget) + " backoff=" +
                  std::to_string(delay) + "s");
  A3CS_LOG(WARN) << "fleet: shard " << w.spec.shard << " exited (status "
                 << status << "), restart " << w.restarts << "/"
                 << cfg_.restart_budget << " after " << delay << "s";
}

void SupervisorImpl::reap_children() {
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    WorkerSlot* w = slot_by_pid(pid);
    if (w != nullptr) on_exit(*w, status);
  }
}

void SupervisorImpl::check_heartbeats() {
  const auto now = Clock::now();
  for (WorkerSlot& w : slots_) {
    if (w.state != WState::kRunning) continue;
    const double silent =
        std::chrono::duration<double>(now - w.last_hb).count();
    if (silent < cfg_.heartbeat_timeout_s) continue;
    ++result_.hb_timeouts;
    static obs::Counter& timeouts =
        obs::MetricsRegistry::global().counter("fleet.hb_timeouts");
    timeouts.inc();
    trace_fleet("hb_timeout", w.spec.shard, w.last_iter,
                "silent " + std::to_string(silent) + "s, SIGKILL");
    A3CS_LOG(WARN) << "fleet: shard " << w.spec.shard << " heartbeat silent "
                   << silent << "s, killing pid " << w.pid;
    ::kill(w.pid, SIGKILL);
    // The exit flows through SIGCHLD -> on_exit like any other crash.
  }
}

void SupervisorImpl::relaunch_due_backoffs() {
  const auto now = Clock::now();
  for (WorkerSlot& w : slots_) {
    if (w.state == WState::kBackoff && now >= w.backoff_until) spawn(w);
  }
}

void SupervisorImpl::handle_stop_request() {
  if (stop_sent_ || !ckpt::stop_requested()) return;
  stop_sent_ = true;
  result_.stopped = true;
  A3CS_LOG(WARN) << "fleet: stop requested, draining workers";
  for (WorkerSlot& w : slots_) {
    if (w.state == WState::kRunning && w.pid > 0) {
      ::kill(w.pid, SIGTERM);  // worker checkpoints and exits 0
    } else if (w.state == WState::kBackoff || w.state == WState::kPending) {
      drop(w, WState::kDropped, "stop requested before (re)launch");
    }
  }
}

bool SupervisorImpl::try_grant() {
  if (!cfg_.reallocate_budget || granted_ || stop_sent_ ||
      budget_pool_ <= 0) {
    return false;
  }
  // Successive-halving style: the surviving shard with the most points on
  // the merged frontier inherits the dropped shards' unspent frames.
  const std::vector<ParetoPoint> frontier = frontier_.frontier();
  WorkerSlot* best = nullptr;
  int best_points = -1;
  for (WorkerSlot& w : slots_) {
    if (w.state != WState::kDone) continue;
    int points = 0;
    for (const ParetoPoint& p : frontier) {
      if (p.shard == w.spec.shard) ++points;
    }
    if (points > best_points) {  // ties: lowest shard id (iteration order)
      best = &w;
      best_points = points;
    }
  }
  if (best == nullptr) return false;
  granted_ = true;
  best->frames_target += budget_pool_;
  trace_fleet("grant", best->spec.shard, best->last_iter,
              "+" + std::to_string(budget_pool_) + " frames");
  A3CS_LOG(INFO) << "fleet: granting " << budget_pool_
                 << " reclaimed frames to shard " << best->spec.shard;
  budget_pool_ = 0;
  spawn(*best);
  return true;
}

FleetResult SupervisorImpl::run() {
  A3CS_CHECK(!cfg_.worker_binary.empty(), "fleet: worker_binary required");
  A3CS_CHECK(!cfg_.out_dir.empty(), "fleet: out_dir required");
  A3CS_CHECK(!cfg_.shards.empty(), "fleet: at least one shard required");
  fs::create_directories(cfg_.out_dir);

  slots_.clear();
  for (const ShardSpec& spec : cfg_.shards) {
    WorkerSlot w;
    w.spec = spec;
    w.frames_target = spec.total_frames;
    slots_.push_back(std::move(w));
  }

  // SIGCHLD self-pipe + handler, restored on every exit path.
  int sig_fds[2];
  A3CS_CHECK(::pipe2(sig_fds, O_CLOEXEC | O_NONBLOCK) == 0,
             "fleet: self-pipe failed");
  g_sigchld_wfd.store(sig_fds[1], std::memory_order_relaxed);
  struct sigaction sa = {};
  sa.sa_handler = sigchld_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  struct sigaction old_sa = {};
  ::sigaction(SIGCHLD, &sa, &old_sa);
  ckpt::StopSignalGuard stop_guard;

  static obs::Gauge& workers_gauge =
      obs::MetricsRegistry::global().gauge("fleet.workers");

  for (WorkerSlot& w : slots_) {
    if (w.state == WState::kPending) spawn(w);
  }

  while (true) {
    if (active_count() == 0) {
      if (!try_grant()) break;
    }

    std::vector<pollfd> pfds;
    pfds.push_back({sig_fds[0], POLLIN, 0});
    std::vector<WorkerSlot*> pollees;
    int running = 0;
    for (WorkerSlot& w : slots_) {
      if (w.state == WState::kRunning) ++running;
      if (w.rfd >= 0) {
        pfds.push_back({w.rfd, POLLIN, 0});
        pollees.push_back(&w);
      }
    }
    workers_gauge.set(running);

    const int rc = ::poll(pfds.data(), pfds.size(), cfg_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) {
      A3CS_LOG(ERROR) << "fleet: poll failed, errno " << errno;
      break;
    }
    if (rc > 0) {
      if ((pfds[0].revents & POLLIN) != 0) {
        char buf[64];
        while (::read(sig_fds[0], buf, sizeof(buf)) > 0) {
        }
      }
      for (std::size_t i = 0; i < pollees.size(); ++i) {
        if ((pfds[i + 1].revents & (POLLIN | POLLHUP)) != 0) {
          drain_fd(*pollees[i], /*to_eof=*/false);
        }
      }
    }

    handle_stop_request();
    reap_children();
    check_heartbeats();
    if (!stop_sent_) relaunch_due_backoffs();
  }

  workers_gauge.set(0);
  ::sigaction(SIGCHLD, &old_sa, nullptr);
  g_sigchld_wfd.store(-1, std::memory_order_relaxed);
  ::close(sig_fds[0]);
  ::close(sig_fds[1]);

  result_.frontier = frontier_.frontier();
  result_.frontier_text = render_frontier(result_.frontier);
  for (const WorkerSlot& w : slots_) {
    ShardReport r;
    r.shard = w.spec.shard;
    r.outcome = w.state == WState::kDone        ? ShardOutcome::kDone
                : w.state == WState::kDiverged  ? ShardOutcome::kDiverged
                                                : ShardOutcome::kDropped;
    r.restarts = w.restarts;
    r.last_iter = w.last_iter;
    r.last_frames = w.last_frames;
    r.detail = w.detail;
    result_.shards.push_back(std::move(r));
  }
  std::sort(result_.shards.begin(), result_.shards.end(),
            [](const ShardReport& a, const ShardReport& b) {
              return a.shard < b.shard;
            });
  return result_;
}

}  // namespace

FleetConfig FleetConfig::with_env_overrides() const {
  FleetConfig out = *this;
  using util::kDoubleMax;
  out.heartbeat_timeout_s = util::env_double(
      "A3CS_FLEET_HB_S", out.heartbeat_timeout_s, 0, kDoubleMax);
  out.restart_budget = static_cast<int>(util::env_int(
      "A3CS_FLEET_RESTARTS", out.restart_budget, 0, util::kIntMax));
  out.backoff_base_s = util::env_double("A3CS_FLEET_BACKOFF_S",
                                        out.backoff_base_s, 0, kDoubleMax);
  out.backoff_max_s = util::env_double("A3CS_FLEET_BACKOFF_MAX_S",
                                       out.backoff_max_s, 0, kDoubleMax);
  out.reallocate_budget =
      util::env_flag("A3CS_FLEET_REALLOC", out.reallocate_budget);
  out.poll_interval_ms = static_cast<int>(util::env_int(
      "A3CS_FLEET_POLL_MS", out.poll_interval_ms, 0, util::kIntMax));
  return out;
}

const char* to_string(ShardOutcome outcome) {
  switch (outcome) {
    case ShardOutcome::kDone:
      return "done";
    case ShardOutcome::kDropped:
      return "dropped";
    case ShardOutcome::kDiverged:
      return "diverged";
  }
  return "unknown";
}

int FleetResult::done_count() const {
  int n = 0;
  for (const ShardReport& r : shards) {
    if (r.outcome == ShardOutcome::kDone) ++n;
  }
  return n;
}

FleetSupervisor::FleetSupervisor(FleetConfig cfg, FleetFaultInjector faults)
    : cfg_(std::move(cfg)), faults_(std::move(faults)) {}

FleetResult FleetSupervisor::run() {
  SupervisorImpl impl(cfg_, faults_);
  return impl.run();
}

}  // namespace a3cs::fleet
