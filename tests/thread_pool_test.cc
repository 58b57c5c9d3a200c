#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace a3cs {
namespace {

using util::ExecConfig;
using util::ThreadPool;

// ---------------------------------------------------------- ExecConfig ----

TEST(ExecConfig, DefaultIsSerial) {
  ExecConfig cfg;
  EXPECT_EQ(cfg.threads, 1);
  EXPECT_EQ(cfg.resolved_threads(), 1);
}

TEST(ExecConfig, ZeroResolvesToHardwareConcurrency) {
  ExecConfig cfg;
  cfg.threads = 0;
  EXPECT_GE(cfg.resolved_threads(), 1);
}

TEST(ExecConfig, EnvOverrideWins) {
  ::setenv("A3CS_THREADS", "3", 1);
  const ExecConfig cfg = ExecConfig{}.with_env_overrides();
  EXPECT_EQ(cfg.threads, 3);
  ::setenv("A3CS_THREADS", "auto", 1);
  EXPECT_EQ(ExecConfig{}.with_env_overrides().threads, 0);
  ::unsetenv("A3CS_THREADS");
  ExecConfig base;
  base.threads = 5;
  EXPECT_EQ(base.with_env_overrides().threads, 5);
}

// ---------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, SerialPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_EQ(pool.worker_count(), 0);
  // Serial regions run inline as one fn(begin, end) call.
  int calls = 0;
  pool.parallel_for(0, 100, 8, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(pool.regions_inline(), 1);
  EXPECT_EQ(pool.regions_parallel(), 0);
}

TEST(ThreadPool, ParallelPoolSpawnsThreadsMinusOneWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  EXPECT_EQ(pool.worker_count(), 3);
}

TEST(ThreadPool, EmptyRangeNeverInvokesFn) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, 0, 1, [&](std::int64_t, std::int64_t) { called = true; });
  pool.parallel_for(5, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.tasks_executed(), 0);
}

TEST(ThreadPool, ShardsCoverRangeExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    for (std::int64_t grain : {1, 3, 16, 1000}) {
      const std::int64_t n = 97;
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(0, n, grain, [&](std::int64_t b, std::int64_t e) {
        if (threads > 1) {  // serial pools run one inline full-range call
          EXPECT_EQ(b % grain, 0) << "shard start not grain-aligned";
          EXPECT_LE(e - b, grain);
        }
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i << " threads " << threads << " grain " << grain;
      }
    }
  }
}

TEST(ThreadPool, NonZeroBeginRespected) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(5, 17, 4, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(),
              (i >= 5 && i < 17) ? 1 : 0)
        << i;
  }
}

TEST(ThreadPool, GrainBelowOneIsClamped) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 10, 0, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, NestedRegionsRunInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> inner_total{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
    // A nested region must not deadlock or fan out again; it runs as one
    // inline call on the current executor.
    int inner_calls = 0;
    pool.parallel_for(0, 100, 1, [&](std::int64_t b, std::int64_t e) {
      ++inner_calls;
      inner_total.fetch_add(e - b);
    });
    EXPECT_EQ(inner_calls, 1);
  });
  EXPECT_EQ(inner_total.load(), 800);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 64, 1,
                        [&](std::int64_t b, std::int64_t) {
                          if (b == 17) throw std::runtime_error("shard 17");
                        }),
      std::runtime_error);
  // The pool survives the exception and keeps executing regions.
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, LabelStatsAttributeTasks) {
  ThreadPool pool(2);
  pool.parallel_for(0, 8, 1, [](std::int64_t, std::int64_t) {}, "alpha");
  pool.parallel_for(0, 6, 1, [](std::int64_t, std::int64_t) {}, "alpha");
  pool.parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {}, "beta");
  std::int64_t alpha_tasks = 0, alpha_regions = 0, beta_tasks = 0;
  for (const auto& s : pool.label_stats()) {
    if (std::string(s.label) == "alpha") {
      alpha_tasks = s.tasks;
      alpha_regions = s.regions;
    } else if (std::string(s.label) == "beta") {
      beta_tasks = s.tasks;
    }
  }
  EXPECT_EQ(alpha_tasks, 14);
  EXPECT_EQ(alpha_regions, 2);
  EXPECT_EQ(beta_tasks, 4);
}

TEST(ThreadPool, LabelStatsSortedRegardlessOfClaimOrder) {
  // Slots are claimed in first-use order; emission (exec_stats gauges and
  // the "exec" trace event) must still be byte-stable, so label_stats()
  // returns labels sorted even when claimed out of order.
  util::ThreadPool pool(2);
  pool.parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {}, "zeta");
  pool.parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {}, "alpha");
  pool.parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {}, "mid");
  const auto stats = pool.label_stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_STREQ(stats[0].label, "alpha");
  EXPECT_STREQ(stats[1].label, "mid");
  EXPECT_STREQ(stats[2].label, "zeta");
}

TEST(ThreadPool, GlobalPoolResizable) {
  util::ThreadPool::set_global_threads(2);
  EXPECT_EQ(util::ThreadPool::global().threads(), 2);
  std::atomic<std::int64_t> total{0};
  util::parallel_for(0, 32, 4, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 32);
  util::ThreadPool::set_global_threads(1);
  EXPECT_EQ(util::ThreadPool::global().threads(), 1);
  EXPECT_EQ(util::ThreadPool::global().worker_count(), 0);
}

// ------------------------------------------------------- BackgroundJob ----

using ThreadId = decltype(std::this_thread::get_id());

TEST(BackgroundJob, RunsOneJobOffTheCallerAndRethrowsItsErrorOnce) {
  for (const int threads : {1, 2}) {
    util::BackgroundJob job(threads);
    ThreadId ran_on;
    job.start([&ran_on] { ran_on = std::this_thread::get_id(); });
    job.wait();
    EXPECT_EQ(ran_on == std::this_thread::get_id(), threads == 1);

    job.start([] { throw std::runtime_error("disk full at /x/ckpt"); });
    try {
      job.wait();
      ADD_FAILURE() << "wait() swallowed the job's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "disk full at /x/ckpt");
    }
    EXPECT_NO_THROW(job.wait()) << "an error is rethrown once";
  }
}

TEST(BackgroundJob, StartBeforeTheLastJobIsCollectedThrows) {
  util::BackgroundJob job(2);
  std::atomic<bool> release{false};
  job.start([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  EXPECT_THROW(job.start([] {}), std::runtime_error) << "no second job";
  release.store(true);
  job.wait();
}

TEST(BackgroundJob, SingleThreadRunsInlineWithoutAThread) {
  util::BackgroundJob job(1);
  bool ran = false;
  ThreadId ran_on;
  job.start([&] {
    ran = true;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_TRUE(ran) << "inline: the job finished inside start()";
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  job.wait();
}

TEST(BackgroundJob, DestructorJoinsAndLogsAnUncollectedError) {
  std::atomic<bool> done{false};
  ::testing::internal::CaptureStderr();
  {
    util::BackgroundJob job(2);
    job.start([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      done.store(true);
      throw std::runtime_error("never collected");
    });
  }  // no wait(): the destructor joins and logs the error
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(done.load());
  EXPECT_NE(log.find("uncollected job error: never collected"),
            std::string::npos)
      << log;
}

}  // namespace
}  // namespace a3cs
