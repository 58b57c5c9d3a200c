#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/perf/chrome_trace.h"
#include "obs/profile.h"
#include "obs/run_scope.h"
#include "obs/trace.h"
#include "util/config.h"

namespace a3cs {
namespace {

// A scratch file path that is removed when the fixture dies.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------------- Metrics ----

TEST(Metrics, CounterSingleThread) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, ConcurrentCounterIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  // Raw threads on purpose: these tests hammer cross-thread atomicity of the
  // metrics/trace primitives themselves. A3CS_LINT(conc-raw-thread)
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(Metrics, GaugeSetAndConcurrentAdd) {
  obs::Gauge g;
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(0.0);
  // Raw threads on purpose: these tests hammer cross-thread atomicity of the
  // metrics/trace primitives themselves. A3CS_LINT(conc-raw-thread)
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(0.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 2000.0);
}

TEST(Metrics, HistogramBucketEdges) {
  obs::Histogram h({1.0, 2.0, 5.0});
  // A sample on a bound lands in that bound's bucket (value <= bound).
  h.record(0.5);   // bucket 0 (<= 1)
  h.record(1.0);   // bucket 0 (edge: exactly on the bound)
  h.record(1.001); // bucket 1 (<= 2)
  h.record(2.0);   // bucket 1 (edge)
  h.record(5.0);   // bucket 2 (edge)
  h.record(5.1);   // overflow
  h.record(1e9);   // overflow
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 2);
  EXPECT_EQ(h.total_count(), 7);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.1 + 1e9, 1e-3);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  const std::vector<double> empty;
  const std::vector<double> unsorted = {2.0, 1.0};
  EXPECT_THROW(obs::Histogram h(empty), std::runtime_error);
  EXPECT_THROW(obs::Histogram h(unsorted), std::runtime_error);
}

TEST(Metrics, RegistryHandsOutStableHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("test.counter");
  obs::Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.snapshot().counters.at("test.counter"), 3);
}

TEST(Metrics, RegistryConcurrentRegistrationAndUpdate) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  // Raw threads on purpose: these tests hammer cross-thread atomicity of the
  // metrics/trace primitives themselves. A3CS_LINT(conc-raw-thread)
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Every thread races registration of the same names.
      obs::Counter& c = reg.counter("shared");
      obs::Histogram& h = reg.histogram("lat", {1.0, 10.0});
      for (int i = 0; i < kIncrements; ++i) {
        c.inc();
        h.record(static_cast<double>(i % 20));
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("shared"),
            static_cast<std::int64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snap.histograms.at("lat").total,
            static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(Metrics, ResetZeroesEverything) {
  obs::MetricsRegistry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(2.0);
  reg.histogram("h", {1.0}).record(0.5);
  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").total, 0);
}

// --------------------------------------------------------------- Trace ----

TEST(Trace, JsonlRoundTrip) {
  TempFile tmp("obs_trace_roundtrip.jsonl");
  {
    obs::TraceWriter writer(tmp.path());
    writer.event("iter")
        .kv("frames", std::int64_t{640})
        .kv("loss", 1.25)
        .kv("game", "Pong")
        .kv("feasible", true)
        .kv("note", "quote \" comma , line\nbreak\ttab \\ done");
    writer.event("end").kv("nan_is_null", std::nan(""));
  }
  const auto events = obs::parse_jsonl_file(tmp.path());
  ASSERT_EQ(events.size(), 3u);  // trace_start + 2

  EXPECT_EQ(events[0].string_or("type", ""), "trace_start");
  EXPECT_FALSE(events[0].string_or("wall_time", "").empty());

  const obs::JsonValue& iter = events[1];
  EXPECT_EQ(iter.string_or("type", ""), "iter");
  EXPECT_DOUBLE_EQ(iter.number_or("frames", -1), 640.0);
  EXPECT_DOUBLE_EQ(iter.number_or("loss", -1), 1.25);
  EXPECT_EQ(iter.string_or("game", ""), "Pong");
  EXPECT_TRUE(iter.find("feasible")->as_bool());
  EXPECT_EQ(iter.string_or("note", ""),
            "quote \" comma , line\nbreak\ttab \\ done");
  // Monotonic timestamps.
  EXPECT_GE(iter.number_or("ts_ms", -1), events[0].number_or("ts_ms", 0));

  // Non-finite numbers are serialized as null, keeping the line valid JSON.
  EXPECT_TRUE(events[2].find("nan_is_null")->is_null());
}

TEST(Trace, EveryLineIsWellFormedUnderConcurrency) {
  TempFile tmp("obs_trace_concurrent.jsonl");
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  {
    obs::TraceWriter writer(tmp.path());
    // Raw threads on purpose: these tests hammer cross-thread atomicity of the
    // metrics/trace primitives themselves. A3CS_LINT(conc-raw-thread)
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        for (int i = 0; i < kEvents; ++i) {
          writer.event("ev").kv("thread", t).kv("i", i).kv("x", 0.5 * i);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(writer.events_written(), kThreads * kEvents + 1);
  }
  // The parser throws on any malformed line => interleaving would fail here.
  const auto events = obs::parse_jsonl_file(tmp.path());
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kEvents + 1);
}

TEST(RunScope, GatesTraceEventsAndKeepsTheOuterWriter) {
  EXPECT_EQ(obs::global_trace(), nullptr);
  obs::trace_event("dropped").kv("x", 1);  // inert without a scope

  TempFile tmp("obs_trace_session.jsonl");
  obs::ObsConfig cfg;
  cfg.trace_path = tmp.path();
  {
    const obs::RunScope scope(cfg, "outer");
    obs::TraceWriter* writer = obs::global_trace();
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->path(), tmp.path());
    obs::trace_event("kept").kv("x", 2);
    {
      // A nested scope must not steal or close the outer writer.
      const obs::RunScope inner(cfg, "inner");
      EXPECT_EQ(obs::global_trace(), writer);
    }
    EXPECT_EQ(obs::global_trace(), writer);
  }
  EXPECT_EQ(obs::global_trace(), nullptr);

  const auto events = obs::parse_jsonl_file(tmp.path());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].string_or("type", ""), "kept");
}

TEST(RunScope, EmptyPathsOpenNothing) {
  const obs::RunScope scope(obs::ObsConfig{}, "quiet");
  EXPECT_EQ(obs::global_trace(), nullptr);
  EXPECT_FALSE(obs::perf::chrome_trace_active());
}

// A sink that cannot open fails its scope before the scope counts or turns
// profiling on, so the next scope is the outermost one again and installs
// its writer.
TEST(RunScope, UnopenableSinkThrowsAndLeavesNothingOpen) {
  obs::Profiler::set_enabled(false);
  const std::string bad = "/nonexistent-a3cs-dir/sink.json";
  obs::ObsConfig trace_cfg;
  trace_cfg.trace_path = bad;
  trace_cfg.profile_enabled = true;
  obs::ObsConfig chrome_cfg;
  chrome_cfg.profile_chrome_path = bad;
  for (const obs::ObsConfig& cfg : {trace_cfg, chrome_cfg}) {
    try {
      const obs::RunScope scope(cfg, "bad");
      ADD_FAILURE() << "opened " << bad;
    } catch (const util::InputError& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(obs::Profiler::enabled());
    EXPECT_EQ(obs::global_trace(), nullptr);
    EXPECT_FALSE(obs::perf::chrome_trace_active());
  }

  TempFile tmp("obs_run_scope_after_bad.jsonl");
  obs::ObsConfig good;
  good.trace_path = tmp.path();
  {
    const obs::RunScope scope(good, "good");
    ASSERT_NE(obs::global_trace(), nullptr);
    EXPECT_EQ(obs::global_trace()->path(), tmp.path());
  }
  EXPECT_EQ(obs::global_trace(), nullptr);
}

// ---------------------------------------------------------------- Json ----

TEST(Json, ParsesNestedDocument) {
  const obs::JsonValue v = obs::JsonValue::parse(
      R"({"a": [1, 2.5, "x", true, null], "b": {"c": -3e2}})");
  const auto& arr = v.find("a")->as_array();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.5);
  EXPECT_EQ(arr[2].as_string(), "x");
  EXPECT_TRUE(arr[3].as_bool());
  EXPECT_TRUE(arr[4].is_null());
  EXPECT_DOUBLE_EQ(v.find("b")->number_or("c", 0.0), -300.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("nul"), std::runtime_error);
}

TEST(Json, UnicodeEscapesNeedFourHexDigitsAndNumbersMustBeFinite) {
  EXPECT_EQ(obs::JsonValue::parse("\"a\\u0041\"").as_string(), "aA");
  for (const char* bad : {"\"\\uZZZZ\"", "\"\\u12\"", "\"\\u-123\"",
                          "\"\\u+041\"", "1e999", "-1e999", "1x"}) {
    EXPECT_THROW(obs::JsonValue::parse(bad), std::runtime_error) << bad;
  }
}

// ------------------------------------------------------------- Profile ----

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::global().reset();
    obs::Profiler::set_enabled(true);
  }
  void TearDown() override {
    obs::Profiler::set_enabled(false);
    obs::Profiler::global().reset();
  }
};

TEST_F(ProfilerTest, BuildsHierarchyByNesting) {
  for (int i = 0; i < 3; ++i) {
    A3CS_PROF_SCOPE("outer");
    { A3CS_PROF_SCOPE("inner"); }
    { A3CS_PROF_SCOPE("inner"); }
  }
  const auto nodes = obs::Profiler::global().flatten();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].path, "outer");
  EXPECT_EQ(nodes[0].depth, 0);
  EXPECT_EQ(nodes[0].calls, 3);
  EXPECT_EQ(nodes[1].path, "outer/inner");
  EXPECT_EQ(nodes[1].depth, 1);
  EXPECT_EQ(nodes[1].calls, 6);
  // Children cannot exceed their parent's wall time.
  EXPECT_LE(nodes[1].total_ns, nodes[0].total_ns);
  EXPECT_GE(nodes[1].fraction_of_parent, 0.0);
  EXPECT_LE(nodes[1].fraction_of_parent, 1.0);
}

TEST_F(ProfilerTest, SameNameUnderDifferentParentsStaysSeparate) {
  {
    A3CS_PROF_SCOPE("a");
    A3CS_PROF_SCOPE("shared");
  }
  {
    A3CS_PROF_SCOPE("b");
    A3CS_PROF_SCOPE("shared");
  }
  const auto nodes = obs::Profiler::global().flatten();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].path, "a");
  EXPECT_EQ(nodes[1].path, "a/shared");
  EXPECT_EQ(nodes[2].path, "b");
  EXPECT_EQ(nodes[3].path, "b/shared");
}

TEST_F(ProfilerTest, DisabledScopesRecordNothing) {
  obs::Profiler::set_enabled(false);
  { A3CS_PROF_SCOPE("ghost"); }
  EXPECT_TRUE(obs::Profiler::global().flatten().empty());
}

TEST_F(ProfilerTest, ConcurrentThreadsMergeIntoSharedNodes) {
  // Raw threads on purpose: these tests hammer cross-thread atomicity of the
  // metrics/trace primitives themselves. A3CS_LINT(conc-raw-thread)
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        A3CS_PROF_SCOPE("worker");
        A3CS_PROF_SCOPE("step");
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto nodes = obs::Profiler::global().flatten();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].path, "worker");
  EXPECT_EQ(nodes[0].calls, 400);
  EXPECT_EQ(nodes[1].path, "worker/step");
  EXPECT_EQ(nodes[1].calls, 400);
}

TEST_F(ProfilerTest, SummaryAndTraceEmission) {
  {
    A3CS_PROF_SCOPE("phase");
    A3CS_PROF_SCOPE("sub");
  }
  std::ostringstream oss;
  obs::Profiler::global().print_summary(oss);
  EXPECT_NE(oss.str().find("phase"), std::string::npos);
  EXPECT_NE(oss.str().find("sub"), std::string::npos);

  TempFile tmp("obs_profile_trace.jsonl");
  {
    obs::TraceWriter writer(tmp.path());
    obs::Profiler::global().emit_to_trace(writer);
  }
  const auto events = obs::parse_jsonl_file(tmp.path());
  ASSERT_EQ(events.size(), 3u);  // trace_start + 2 profile nodes
  EXPECT_EQ(events[1].string_or("type", ""), "profile");
  EXPECT_EQ(events[1].string_or("path", ""), "phase");
  EXPECT_EQ(events[2].string_or("path", ""), "phase/sub");
}

// Nested run scopes: the inner one opens no sink and reports nothing; the
// outermost one reports the profile once, after the inner run closed.
TEST_F(ProfilerTest, RunScopeReportsOnceFromTheOutermostScope) {
  TempFile tmp("obs_run_scope.jsonl");
  obs::ObsConfig cfg;
  cfg.trace_path = tmp.path();
  cfg.profile_enabled = true;
  {
    const obs::RunScope outer(cfg, "outer");
    obs::TraceWriter* writer = obs::global_trace();
    ASSERT_NE(writer, nullptr);
    {
      const obs::RunScope inner(cfg, "inner");
      EXPECT_EQ(obs::global_trace(), writer);
      A3CS_PROF_SCOPE("phase");
    }
    obs::trace_event("after_inner");
  }
  EXPECT_EQ(obs::global_trace(), nullptr);

  const auto events = obs::parse_jsonl_file(tmp.path());
  ASSERT_EQ(events.size(), 3u);  // trace_start, after_inner, one profile node
  EXPECT_EQ(events[1].string_or("type", ""), "after_inner");
  EXPECT_EQ(events[2].string_or("type", ""), "profile");
  EXPECT_EQ(events[2].string_or("path", ""), "phase");
}

TEST_F(ProfilerTest, RunScopeSkipsTheReportWhenUnwinding) {
  TempFile tmp("obs_run_scope_throw.jsonl");
  obs::ObsConfig cfg;
  cfg.trace_path = tmp.path();
  cfg.profile_enabled = true;
  try {
    const obs::RunScope scope(cfg, "run");
    A3CS_PROF_SCOPE("phase");
    throw std::runtime_error("aborted run");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(obs::global_trace(), nullptr);
  const auto events = obs::parse_jsonl_file(tmp.path());
  ASSERT_EQ(events.size(), 1u);  // trace_start only
}

// -------------------------------------------------------------- Config ----

TEST(ObsConfig, EnvOverridesWin) {
  ::setenv("A3CS_TRACE_PATH", "/tmp/override.jsonl", 1);
  ::setenv("A3CS_TRACE_EVERY", "7", 1);
  ::setenv("A3CS_PROFILE", "1", 1);
  obs::ObsConfig cfg;
  const obs::ObsConfig resolved = cfg.with_env_overrides();
  EXPECT_EQ(resolved.trace_path, "/tmp/override.jsonl");
  EXPECT_EQ(resolved.trace_every, 7);
  EXPECT_TRUE(resolved.profile_enabled);
  ::unsetenv("A3CS_TRACE_PATH");
  ::unsetenv("A3CS_TRACE_EVERY");
  ::unsetenv("A3CS_PROFILE");
}

TEST(ObsConfig, DefaultsAreQuiet) {
  const obs::ObsConfig resolved = obs::ObsConfig{}.with_env_overrides();
  EXPECT_TRUE(resolved.trace_path.empty());
  EXPECT_TRUE(resolved.profile_chrome_path.empty());
  EXPECT_FALSE(resolved.profile_enabled);
}

}  // namespace
}  // namespace a3cs
