// Deterministic thread-pool execution layer.
//
// One persistent pool (usually the process-global one) executes
// `parallel_for(begin, end, grain, fn)` regions across every hot path of the
// repro: GEMM row panels, im2col rows, VecEnv shards, the top-K NAS backward
// and the DAS predictor sweeps.
//
// Determinism contract
// --------------------
// The range is cut into FIXED contiguous shards of `grain` indices (the last
// shard may be short). Shard boundaries depend only on (begin, end, grain) —
// never on the thread count — and each shard is executed by exactly one
// thread with its internal iteration order unchanged. Callers must write
// disjoint outputs per index and keep any floating-point reduction either
// inside one shard or in serial code after the region; under that contract
// results are bit-exact for every A3CS_THREADS value, including 1.
//
// Serial mode is free: a pool of size 1 spawns no threads and parallel_for
// degenerates to one inline `fn(begin, end)` call (legal because the shard
// decomposition of a disjoint-write region composes back to the full range).
// Nested regions (a task calling parallel_for) also run inline, so kernels
// can stay instrumented without deadlock or oversubscription.
//
// Thread count resolution: ExecConfig{}.with_env_overrides() reads
// A3CS_THREADS (1 = serial default; 0 or "auto" = hardware concurrency).
//
// SerialWorker (below) is the one other owner of a thread: a single FIFO
// background thread for work that must leave the caller, not be sharded.
#pragma once

#include <atomic>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace a3cs::util {

// ObsConfig-style execution configuration: programmatic defaults plus
// environment overrides, threaded through CoSearchConfig and the benches.
struct ExecConfig {
  // Total executor threads (the caller participates, so N means N-1 pool
  // workers). 1 = serial, 0 = one per hardware thread.
  int threads = 1;

  // Returns a copy with A3CS_THREADS applied on top (env wins).
  ExecConfig with_env_overrides() const;

  // Maps the `0 = auto` convention to a concrete positive thread count.
  int resolved_threads() const;
};

class ThreadPool {
 public:
  // Spawns `threads - 1` workers; the calling thread is the remaining
  // executor. threads <= 1 spawns nothing at all.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }
  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Lifetime occupancy stats (relaxed atomics; for obs/ publishing).
  std::int64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  std::int64_t regions_parallel() const {
    return regions_parallel_.load(std::memory_order_relaxed);
  }
  std::int64_t regions_inline() const {
    return regions_inline_.load(std::memory_order_relaxed);
  }

  // Per-phase task accounting, keyed by string literal. Slots are claimed on
  // first use; at most kMaxLabels distinct labels are tracked. The returned
  // stats are sorted by label so downstream metric/trace emission is
  // byte-stable regardless of which subsystem touched the pool first.
  static constexpr int kMaxLabels = 16;
  struct LabelStat {
    const char* label = nullptr;
    std::int64_t regions = 0;
    std::int64_t tasks = 0;
  };
  std::vector<LabelStat> label_stats() const;

  // Runs fn(shard_begin, shard_end) over [begin, end) cut into grain-sized
  // contiguous shards (see file header for the determinism contract).
  // `label` (a string literal or nullptr) attributes the region's task count
  // in label_stats(). Exceptions from any shard are rethrown to the caller
  // (first one wins). A caller whose per-index work is tiny keeps a small
  // range serial by passing a grain of the whole range: one shard runs
  // inline.
  template <typename Fn>
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    Fn&& fn, const char* label = nullptr) {
    const std::int64_t range = end - begin;
    if (range <= 0) return;
    if (grain < 1) grain = 1;
    const std::int64_t shards = (range + grain - 1) / grain;
    if (threads_ <= 1 || shards <= 1 || in_worker()) {
      regions_inline_.fetch_add(1, std::memory_order_relaxed);
      fn(begin, end);
      return;
    }
    regions_parallel_.fetch_add(1, std::memory_order_relaxed);
    record_label(label, shards);

    // Static round-robin shard assignment: executor e runs shards
    // e, e + E, e + 2E, ... where E = number of participating executors.
    // (Assignment affects scheduling only; results are shard-local.)
    const int executors =
        static_cast<int>(std::min<std::int64_t>(threads_, shards));
    std::atomic<int> done{0};
    std::exception_ptr error;
    std::mutex error_mu;
    auto run_executor = [&, begin, end, grain, shards](int e) {
      InWorkerScope scope;
      try {
        for (std::int64_t s = e; s < shards; s += executors) {
          const std::int64_t b = begin + s * grain;
          const std::int64_t lim = std::min(end, b + grain);
          fn(b, lim);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    };
    tasks_executed_.fetch_add(shards, std::memory_order_relaxed);
    for (int e = 1; e < executors; ++e) {
      enqueue([&run_executor, e] { run_executor(e); });
    }
    run_executor(0);
    wait_for(done, executors);
    if (error) std::rethrow_exception(error);
  }

  // The process-global pool, lazily sized from ExecConfig env overrides
  // (A3CS_THREADS) on first use.
  static ThreadPool& global();
  // Replaces the global pool (drains the old one first). Not safe while
  // regions are in flight on other threads — configure at phase boundaries,
  // as CoSearchEngine::run and the benches do.
  static void set_global_threads(int threads);

 private:
  // Marks the current thread as executing pool work, so nested regions run
  // inline (worker threads set it for their whole lifetime; the caller sets
  // it only while it participates in a region).
  static bool& in_worker_flag();
  static bool in_worker() { return in_worker_flag(); }
  struct InWorkerScope {
    bool prev;
    InWorkerScope() : prev(in_worker_flag()) { in_worker_flag() = true; }
    ~InWorkerScope() { in_worker_flag() = prev; }
  };

  void enqueue(std::function<void()> task);
  void worker_loop();
  void notify_done();
  void wait_for(std::atomic<int>& done, int target);
  void record_label(const char* label, std::int64_t tasks);

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::deque<std::function<void()>> queue_ A3CS_GUARDED_BY(mu_);
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool stop_ A3CS_GUARDED_BY(mu_) = false;

  std::atomic<std::int64_t> tasks_executed_{0};
  std::atomic<std::int64_t> regions_parallel_{0};
  std::atomic<std::int64_t> regions_inline_{0};

  struct LabelSlot {
    std::atomic<const char*> label{nullptr};
    std::atomic<std::int64_t> regions{0};
    std::atomic<std::int64_t> tasks{0};
  };
  std::array<LabelSlot, kMaxLabels> labels_;
};

// One background thread that runs submitted jobs in FIFO order: work that
// must leave the calling thread without entering the sharded pool, such as a
// checkpoint's encode + fsync + rename. It is not a ThreadPool member, so
// only its owner pays for it: the thread starts on the first submit(), and
// with `threads` <= 1 (the resolved execution thread count) there is no
// thread at all and submit() runs the job inline. Either way a job's
// exception is kept and rethrown by the next wait() (the first one wins;
// later jobs still run). The destructor runs what is queued, then joins;
// it logs an error no wait() collected.
class SerialWorker {
 public:
  explicit SerialWorker(int threads) : inline_(threads <= 1) {}
  ~SerialWorker();

  SerialWorker(const SerialWorker&) = delete;
  SerialWorker& operator=(const SerialWorker&) = delete;

  void submit(std::function<void()> job);
  // Blocks until every submitted job has finished, then rethrows the first
  // error since the last wait().
  void wait();
  // Whether the background thread exists.
  bool started();

 private:
  void loop();
  void run_job(std::function<void()>& job);

  const bool inline_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // the thread: a job or stop
  std::condition_variable idle_cv_;  // wait(): the queue drained
  std::deque<std::function<void()>> queue_ A3CS_GUARDED_BY(mu_);
  bool busy_ A3CS_GUARDED_BY(mu_) = false;
  bool stop_ A3CS_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ A3CS_GUARDED_BY(mu_);
  std::thread thread_ A3CS_GUARDED_BY(mu_);
};

// Convenience wrapper over the global pool.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn, const char* label = nullptr) {
  ThreadPool::global().parallel_for(begin, end, grain, std::forward<Fn>(fn),
                                    label);
}

}  // namespace a3cs::util
