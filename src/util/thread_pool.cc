#include "util/thread_pool.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "util/config.h"
#include "util/logging.h"

namespace a3cs::util {

ExecConfig ExecConfig::with_env_overrides() const {
  ExecConfig out = *this;
  if (env_string("A3CS_THREADS", "") == "auto") {
    out.threads = 0;
  } else {
    out.threads =
        static_cast<int>(env_int("A3CS_THREADS", out.threads, 0, 1024));
  }
  return out;
}

int ExecConfig::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool& ThreadPool::in_worker_flag() {
  thread_local bool flag = false;
  return flag;
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  in_worker_flag() = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    notify_done();
  }
}

void ThreadPool::notify_done() {
  // Taking the lock (even empty) serializes with a waiter that has evaluated
  // its predicate but not yet blocked, so the wakeup cannot be lost.
  { std::lock_guard<std::mutex> lock(mu_); }
  done_cv_.notify_all();
}

void ThreadPool::wait_for(std::atomic<int>& done, int target) {
  // The caller helps drain the queue while it waits: another region's tasks
  // may be ahead of ours, and executing them is both deadlock-free (tasks
  // never block on other tasks) and faster than sleeping.
  for (;;) {
    if (done.load(std::memory_order_acquire) >= target) return;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) {
        if (done.load(std::memory_order_acquire) >= target) return;
        done_cv_.wait(lock, [&] {
          return !queue_.empty() ||
                 done.load(std::memory_order_acquire) >= target;
        });
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      InWorkerScope scope;
      task();
    }
    notify_done();
  }
}

void ThreadPool::record_label(const char* label, std::int64_t tasks) {
  if (label == nullptr) return;
  for (LabelSlot& slot : labels_) {
    const char* cur = slot.label.load(std::memory_order_acquire);
    if (cur == nullptr) {
      const char* expected = nullptr;
      if (!slot.label.compare_exchange_strong(expected, label,
                                              std::memory_order_acq_rel)) {
        cur = expected;
      } else {
        cur = label;
      }
    }
    if (cur == label) {
      slot.regions.fetch_add(1, std::memory_order_relaxed);
      slot.tasks.fetch_add(tasks, std::memory_order_relaxed);
      return;
    }
  }
  // Label table full: the region still runs, it just isn't attributed.
}

std::vector<ThreadPool::LabelStat> ThreadPool::label_stats() const {
  std::vector<LabelStat> out;
  for (const LabelSlot& slot : labels_) {
    const char* label = slot.label.load(std::memory_order_acquire);
    if (label == nullptr) continue;
    out.push_back({label, slot.regions.load(std::memory_order_relaxed),
                   slot.tasks.load(std::memory_order_relaxed)});
  }
  // Slots are claimed in first-use order, which depends on which subsystem
  // hits the pool first; sort so metric/trace emission downstream is
  // byte-stable across runs (docs/STATIC_ANALYSIS.md, det-unordered-iter).
  std::sort(out.begin(), out.end(),
            [](const LabelStat& a, const LabelStat& b) {
              return std::strcmp(a.label, b.label) < 0;
            });
  return out;
}

SerialWorker::~SerialWorker() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    thread = std::move(thread_);
  }
  work_cv_.notify_all();
  if (thread.joinable()) thread.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) return;
  try {
    std::rethrow_exception(error_);
  } catch (const std::exception& e) {
    A3CS_LOG(ERROR) << "SerialWorker: uncollected job error: " << e.what();
  } catch (...) {
    A3CS_LOG(ERROR) << "SerialWorker: uncollected non-standard job error";
  }
}

void SerialWorker::submit(std::function<void()> job) {
  if (inline_) {
    run_job(job);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
  }
  work_cv_.notify_one();
}

void SerialWorker::wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

bool SerialWorker::started() {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_.joinable();
}

void SerialWorker::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped and drained
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lock.unlock();
    run_job(job);
    lock.lock();
    busy_ = false;
    idle_cv_.notify_all();
  }
}

void SerialWorker::run_job(std::function<void()>& job) {
  std::exception_ptr error;
  try {
    job();
  } catch (...) {
    error = std::current_exception();
  }
  job = nullptr;  // free what the job captured before wait() returns
  std::lock_guard<std::mutex> lock(mu_);
  if (error && !error_) error_ = error;
}

namespace {
std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
std::mutex& global_pool_mu() {
  static std::mutex mu;
  return mu;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_pool_mu());
  auto& slot = global_pool_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(
        ExecConfig{}.with_env_overrides().resolved_threads());
  }
  return *slot;
}

void ThreadPool::set_global_threads(int threads) {
  const int resolved = ExecConfig{threads}.resolved_threads();
  std::lock_guard<std::mutex> lock(global_pool_mu());
  auto& slot = global_pool_slot();
  if (slot && slot->threads() == resolved) return;
  slot = std::make_unique<ThreadPool>(resolved);
}

}  // namespace a3cs::util
