// Tests for the performance observability subsystem (src/obs/perf/):
// benchmark registry determinism under an injected fake clock, BENCH_*.json
// schema round-trips, the regression-diff verdicts behind tools/bench_report
// (including the real binary's exit codes), Chrome trace_events export
// well-formedness, per-kernel work counters, and the histogram reservoir's
// exact small-sample quantiles. The end-to-end case drives the real
// cosearch_full binary with A3CS_PROFILE_CHROME and schema-checks its trace,
// mirroring how ckpt_resume_test drives ckpt_run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/perf/bench.h"
#include "obs/perf/bench_json.h"
#include "obs/perf/chrome_trace.h"
#include "obs/perf/run_meta.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace a3cs {
namespace {

using obs::perf::BenchDoc;
using obs::perf::BenchResult;
using obs::perf::BenchSuite;
using obs::perf::DiffRow;
using tensor::Shape;
using tensor::Tensor;

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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

// ------------------------------------------------------------ fake clock ----

// Advances 1ms per reading, so every measured sample is exactly 1.0 ms and
// registry output is a pure function of the sampling policy.
constexpr std::int64_t kFakeStepNs = 1'000'000;
std::int64_t g_fake_ns = 0;

std::int64_t fake_clock() {
  g_fake_ns += kFakeStepNs;
  return g_fake_ns;
}

// Installs the fake clock for one scope; restores steady_clock on exit.
class FakeClockScope {
 public:
  FakeClockScope() {
    g_fake_ns = 0;
    BenchSuite::set_clock_for_test(&fake_clock);
  }
  ~FakeClockScope() { BenchSuite::set_clock_for_test(nullptr); }
};

// Registered bodies for a local (non-global) suite. Fixed budget so repeats
// do not depend on the host.
void fixed_budget_bench(obs::perf::Bench& b) {
  obs::perf::BenchBudget budget;
  budget.warmup = 0;
  budget.min_repeats = 4;
  budget.max_repeats = 4;
  budget.min_total_ms = 0.0;
  b.config("unit").work(100, 200).items(10.0, "it/s").budget(budget).run(
      [] {});
}

// Two configs staged in reverse order: run_all must sort results.
void two_config_bench(obs::perf::Bench& b) {
  obs::perf::BenchBudget budget;
  budget.warmup = 0;
  budget.min_repeats = 1;
  budget.max_repeats = 1;
  budget.min_total_ms = 0.0;
  b.config("zeta").budget(budget).run([] {});
  b.config("alpha").budget(budget).run([] {});
}

obs::perf::RunMeta fixed_meta() {
  obs::perf::RunMeta meta;
  meta.git_sha = "deadbeef0000";
  meta.host = "testhost/x86_64/1c";
  meta.threads = 1;
  meta.scale = 1.0;
  meta.smoke = false;
  meta.wall_time = "2026-01-01T00:00:00.000";
  return meta;
}

BenchResult make_result(const std::string& name, const std::string& config,
                        int threads, double median_ms) {
  BenchResult r;
  r.name = name;
  r.config = config;
  r.threads = threads;
  r.repeats = 5;
  r.median_ms = median_ms;
  r.p10_ms = median_ms * 0.9;
  r.p90_ms = median_ms * 1.1;
  r.mean_ms = median_ms;
  r.steady = true;
  return r;
}

// ---------------------------------------------------------- bench registry --

TEST(BenchRegistry, DeterministicUnderFakeClock) {
  FakeClockScope clock;
  BenchSuite suite;
  suite.add("fixed", &fixed_budget_bench);

  const std::vector<BenchResult> results = suite.run_all();
  ASSERT_EQ(results.size(), 1u);
  const BenchResult& r = results[0];
  EXPECT_EQ(r.name, "fixed");
  EXPECT_EQ(r.config, "unit");
  EXPECT_EQ(r.repeats, 4);
  EXPECT_DOUBLE_EQ(r.median_ms, 1.0);
  EXPECT_DOUBLE_EQ(r.p10_ms, 1.0);
  EXPECT_DOUBLE_EQ(r.p90_ms, 1.0);
  EXPECT_TRUE(r.steady);
  // 10 items / 1ms median = 10k items/s.
  EXPECT_DOUBLE_EQ(r.throughput, 10'000.0);
  EXPECT_EQ(r.throughput_unit, "it/s");
  EXPECT_EQ(r.flops, 100);
  EXPECT_EQ(r.bytes, 200);

  // Same suite, same clock schedule => byte-identical document.
  BenchDoc doc1;
  doc1.suite = "fake";
  doc1.meta = fixed_meta();
  doc1.results = results;

  g_fake_ns = 0;
  BenchDoc doc2 = doc1;
  doc2.results = suite.run_all();
  EXPECT_EQ(obs::perf::render_bench_json(doc1),
            obs::perf::render_bench_json(doc2));
}

TEST(BenchRegistry, ResultsSortedByNameConfigThreads) {
  FakeClockScope clock;
  BenchSuite suite;
  // Registered out of name order on purpose.
  suite.add("zz_fixed", &fixed_budget_bench);
  suite.add("aa_two", &two_config_bench);

  const std::vector<BenchResult> results = suite.run_all();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "aa_two");
  EXPECT_EQ(results[0].config, "alpha");
  EXPECT_EQ(results[1].config, "zeta");
  EXPECT_EQ(results[2].name, "zz_fixed");
}

TEST(BenchRegistry, FilterSelectsBySubstring) {
  FakeClockScope clock;
  BenchSuite suite;
  suite.add("gemm", &fixed_budget_bench);
  suite.add("im2col", &fixed_budget_bench);
  const std::vector<BenchResult> results = suite.run_all("gem");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "gemm");
}

TEST(BenchRegistry, ExactQuantileInterpolates) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::perf::exact_quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::perf::exact_quantile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(obs::perf::exact_quantile(sorted, 0.5), 2.5);
  // pos = 0.1 * 3 = 0.3 -> 1.0 + 0.3 * (2.0 - 1.0).
  EXPECT_DOUBLE_EQ(obs::perf::exact_quantile(sorted, 0.1), 1.3);
  EXPECT_DOUBLE_EQ(obs::perf::exact_quantile({7.5}, 0.9), 7.5);
  EXPECT_DOUBLE_EQ(obs::perf::exact_quantile({}, 0.5), 0.0);
}

// ------------------------------------------------------- bench env checks ---

TEST(BenchEnv, StrictValidation) {
  ASSERT_TRUE(obs::perf::validate_bench_env().empty());

  setenv("A3CS_SCALE", "abc", 1);
  auto errors = obs::perf::validate_bench_env();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("A3CS_SCALE"), std::string::npos);

  setenv("A3CS_SCALE", "0", 1);
  errors = obs::perf::validate_bench_env();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("must be > 0"), std::string::npos);

  // Trailing garbage must not silently truncate.
  setenv("A3CS_SCALE", "0.5x", 1);
  EXPECT_EQ(obs::perf::validate_bench_env().size(), 1u);

  setenv("A3CS_SCALE", "0.5", 1);
  setenv("A3CS_EVAL_EPISODES", "-3", 1);
  errors = obs::perf::validate_bench_env();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("A3CS_EVAL_EPISODES"), std::string::npos);

  setenv("A3CS_EVAL_EPISODES", "2", 1);
  EXPECT_TRUE(obs::perf::validate_bench_env().empty());

  unsetenv("A3CS_SCALE");
  unsetenv("A3CS_EVAL_EPISODES");
}

// ------------------------------------------------------------ JSON schema ---

TEST(BenchJson, RenderParseRoundTripIsByteStable) {
  BenchDoc doc;
  doc.suite = "kernels";
  doc.meta = fixed_meta();
  doc.results = {make_result("gemm", "256x256x256", 1, 33.5),
                 make_result("gemm", "256x256x256", 4, 11.25),
                 make_result("im2col", "16x32x28x28_k3", 1, 2.0)};
  doc.results[0].flops = 33'554'432;
  doc.results[0].bytes = 786'432;
  doc.results[0].throughput = 29.85;
  doc.results[0].throughput_unit = "calls/s";

  const std::string rendered = obs::perf::render_bench_json(doc);
  const BenchDoc parsed =
      obs::perf::parse_bench_doc(obs::JsonValue::parse(rendered));
  EXPECT_EQ(parsed.suite, "kernels");
  EXPECT_EQ(parsed.meta.git_sha, "deadbeef0000");
  ASSERT_EQ(parsed.results.size(), 3u);
  EXPECT_EQ(parsed.results[0].flops, 33'554'432);
  EXPECT_EQ(obs::perf::render_bench_json(parsed), rendered);
}

TEST(BenchJson, StrictParserRejectsSchemaViolations) {
  BenchDoc doc;
  doc.suite = "kernels";
  doc.meta = fixed_meta();
  doc.results = {make_result("gemm", "", 1, 1.0)};
  const std::string good = obs::perf::render_bench_json(doc);

  // Future schema version: refuse instead of diffing garbage.
  std::string bumped = good;
  const std::string version_key = "\"schema_version\":1";
  bumped.replace(bumped.find(version_key), version_key.size(),
                 "\"schema_version\":99");
  EXPECT_THROW(obs::perf::parse_bench_doc(obs::JsonValue::parse(bumped)),
               std::runtime_error);

  // Missing required result field.
  std::string no_median = good;
  const std::string median_key = "\"median_ms\"";
  no_median.replace(no_median.find(median_key), median_key.size(),
                    "\"median_renamed\"");
  EXPECT_THROW(obs::perf::parse_bench_doc(obs::JsonValue::parse(no_median)),
               std::runtime_error);

  // Missing meta block entirely.
  EXPECT_THROW(obs::perf::parse_bench_doc(obs::JsonValue::parse(
                   "{\"schema_version\":1,\"suite\":\"x\",\"results\":[]}")),
               std::runtime_error);
}

TEST(BenchJson, FileRoundTripAndMissingFileThrows) {
  TempFile tmp("/perf_bench_doc.json");
  BenchDoc doc;
  doc.suite = "predictor";
  doc.meta = fixed_meta();
  doc.results = {make_result("das_step", "samples1", 1, 4.0)};
  obs::perf::write_bench_file(tmp.path(), doc);
  const BenchDoc parsed = obs::perf::parse_bench_file(tmp.path());
  EXPECT_EQ(parsed.results[0].name, "das_step");
  EXPECT_THROW(obs::perf::parse_bench_file(tmp.path() + ".nope"),
               std::runtime_error);
}

// -------------------------------------------------------- regression diff ---

TEST(BenchDiff, VerdictsAndGate) {
  BenchDoc baseline;
  baseline.suite = "kernels";
  baseline.meta = fixed_meta();
  baseline.results = {make_result("flat", "", 1, 10.0),
                      make_result("slower", "", 1, 10.0),
                      make_result("faster", "", 1, 20.0),
                      make_result("dropped", "", 1, 5.0)};
  BenchDoc current = baseline;
  current.results = {make_result("flat", "", 1, 11.0),
                     make_result("slower", "", 1, 20.0),
                     make_result("faster", "", 1, 10.0),
                     make_result("added", "", 1, 5.0)};

  const std::vector<DiffRow> rows =
      obs::perf::diff_baselines(baseline, current, 25.0);
  ASSERT_EQ(rows.size(), 5u);  // union of keys, sorted
  EXPECT_EQ(rows[0].key, "added//t1");
  EXPECT_EQ(rows[0].verdict, DiffRow::Verdict::kNew);
  EXPECT_EQ(rows[1].key, "dropped//t1");
  EXPECT_EQ(rows[1].verdict, DiffRow::Verdict::kMissing);
  EXPECT_EQ(rows[2].key, "faster//t1");
  EXPECT_EQ(rows[2].verdict, DiffRow::Verdict::kImproved);
  EXPECT_EQ(rows[3].key, "flat//t1");
  EXPECT_EQ(rows[3].verdict, DiffRow::Verdict::kOk);
  EXPECT_DOUBLE_EQ(rows[3].delta_pct, 10.0);
  EXPECT_EQ(rows[4].key, "slower//t1");
  EXPECT_EQ(rows[4].verdict, DiffRow::Verdict::kRegressed);
  EXPECT_DOUBLE_EQ(rows[4].delta_pct, 100.0);

  EXPECT_TRUE(obs::perf::diff_has_failure(rows));
  // A dropped bench is only tolerated when the caller opts out.
  const std::vector<DiffRow> no_regress = {rows[0], rows[1], rows[2],
                                           rows[3]};
  EXPECT_TRUE(obs::perf::diff_has_failure(no_regress));
  EXPECT_FALSE(
      obs::perf::diff_has_failure(no_regress, /*missing_fails=*/false));
  const std::vector<DiffRow> clean = {rows[0], rows[2], rows[3]};
  EXPECT_FALSE(obs::perf::diff_has_failure(clean));
}

// Exit-code contract of the real bench_report binary.
TEST(BenchReportBinary, ExitCodes) {
  TempFile base("/perf_report_base.json");
  TempFile regressed("/perf_report_regressed.json");
  TempFile other_suite("/perf_report_other.json");

  BenchDoc doc;
  doc.suite = "kernels";
  doc.meta = fixed_meta();
  doc.results = {make_result("gemm", "s", 1, 10.0)};
  obs::perf::write_bench_file(base.path(), doc);

  BenchDoc slow = doc;
  slow.results[0].median_ms = 100.0;
  obs::perf::write_bench_file(regressed.path(), slow);

  BenchDoc other = doc;
  other.suite = "predictor";
  obs::perf::write_bench_file(other_suite.path(), other);

  const std::string bin = A3CS_BENCH_REPORT_BIN;
  const std::string quiet = " > /dev/null 2>&1";
  EXPECT_EQ(run_command(bin + " --check --baseline " + base.path() +
                        " --current " + base.path() + quiet),
            0);
  EXPECT_EQ(run_command(bin + " --check --baseline " + base.path() +
                        " --current " + regressed.path() + quiet),
            1);
  // Without --check a regression still reports but does not gate.
  EXPECT_EQ(run_command(bin + " --baseline " + base.path() + " --current " +
                        regressed.path() + quiet),
            0);
  // A generous threshold lets the same pair pass.
  EXPECT_EQ(run_command(bin + " --check --max-regress 10000 --baseline " +
                        base.path() + " --current " + regressed.path() +
                        quiet),
            0);
  EXPECT_EQ(run_command(bin + " --check --baseline " + base.path() +
                        " --current " + other_suite.path() + quiet),
            2);
  EXPECT_EQ(run_command(bin + " --check --baseline " + base.path() +
                        ".nope --current " + base.path() + quiet),
            3);
  EXPECT_EQ(run_command(bin + " --bogus-flag" + quiet), 2);
}

// ------------------------------------------------------------ chrome trace --

// Walks traceEvents and checks per-(pid,tid) B/E balance; returns the E
// event count.
int check_balanced(const obs::JsonValue& root) {
  const obs::JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::map<std::string, std::vector<std::string>> open;
  int closed = 0;
  for (const obs::JsonValue& ev : events->as_array()) {
    const std::string ph = ev.string_or("ph", "");
    if (ph != "B" && ph != "E") continue;
    const std::string lane =
        std::to_string(static_cast<int>(ev.number_or("pid", 0))) + "/" +
        std::to_string(static_cast<int>(ev.number_or("tid", 0)));
    if (ph == "B") {
      open[lane].push_back(ev.string_or("name", ""));
      continue;
    }
    EXPECT_FALSE(open[lane].empty()) << "unbalanced E on lane " << lane;
    if (!open[lane].empty()) {
      EXPECT_EQ(open[lane].back(), ev.string_or("name", ""));
      open[lane].pop_back();
      ++closed;
    }
  }
  for (const auto& [lane, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed B on lane " << lane;
  }
  return closed;
}

TEST(ChromeTrace, BalancedEventsWithWorkAnnotations) {
  TempFile tmp("/perf_chrome_unit.json");
  obs::ObsConfig cfg;
  cfg.profile_enabled = true;
  cfg.profile_chrome_path = tmp.path();
  obs::Profiler::set_enabled(true);
  {
    obs::perf::ChromeTraceSession session(cfg);
    ASSERT_TRUE(session.active());
    ASSERT_TRUE(obs::perf::chrome_trace_active());
    {
      A3CS_PROF_SCOPE("outer");
      {
        A3CS_PROF_SCOPE("unit-kernel");
        obs::perf::WorkCounters::named("unit-kernel").add(1000, 64, 32);
        obs::perf::WorkCounters::named("unit-kernel").add(500, 16, 8);
      }
    }
  }
  obs::Profiler::set_enabled(false);
  EXPECT_FALSE(obs::perf::chrome_trace_active());

  const obs::JsonValue root = obs::JsonValue::parse(slurp(tmp.path()));
  ASSERT_TRUE(root.is_object());
  const obs::JsonValue* meta = root.find("otherData");
  ASSERT_NE(meta, nullptr);
  EXPECT_FALSE(meta->string_or("git_sha", "").empty());
  EXPECT_FALSE(meta->string_or("host", "").empty());
  EXPECT_EQ(check_balanced(root), 2);

  // The kernel scope's E event carries the accumulated work annotation.
  bool found_annotated = false;
  for (const obs::JsonValue& ev : root.find("traceEvents")->as_array()) {
    if (ev.string_or("ph", "") != "E" ||
        ev.string_or("name", "") != "unit-kernel") {
      continue;
    }
    const obs::JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->number_or("flops", 0), 1500.0);
    EXPECT_DOUBLE_EQ(args->number_or("bytes_read", 0), 80.0);
    EXPECT_DOUBLE_EQ(args->number_or("bytes_written", 0), 40.0);
    found_annotated = true;
  }
  EXPECT_TRUE(found_annotated);
}

TEST(ChromeTrace, ScopesWithoutSessionEmitNothing) {
  obs::Profiler::set_enabled(true);
  {
    // No ChromeTraceSession: the thread-local stack must still balance and
    // no writer may be touched.
    A3CS_PROF_SCOPE("orphan");
    obs::perf::WorkCounters::named("orphan-kernel").add(1, 1, 1);
  }
  obs::Profiler::set_enabled(false);
  EXPECT_FALSE(obs::perf::chrome_trace_active());
}

// ----------------------------------------------------------- work counters --

TEST(WorkCounters, GemmFlopsMatchAnalyticModel) {
  obs::perf::reset_work_counters();
  const int m = 8, k = 16, n = 4;
  Tensor a(Shape::mat(m, k));
  Tensor b(Shape::mat(k, n));
  Tensor c(Shape::mat(m, n));
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = 0.5f;
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = 0.25f;
  tensor::gemm(a, false, b, false, c);

  const auto snap = obs::perf::work_snapshot();
  const auto it = snap.find("gemm");
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second.flops, 2ll * m * k * n);
  // A(m,k) + B(k,n) floats read, C(m,n) floats written.
  EXPECT_EQ(it->second.bytes_read, 4ll * (m * k + k * n));
  EXPECT_EQ(it->second.bytes_written, 4ll * m * n);

  obs::perf::reset_work_counters();
  const auto cleared = obs::perf::work_snapshot();
  const auto it2 = cleared.find("gemm");
  ASSERT_NE(it2, cleared.end());
  EXPECT_EQ(it2->second.flops, 0);
}

// ------------------------------------------------- histogram quantiles ----

TEST(MetricsHistogram, ExactQuantilesForSmallSamples) {
  obs::Histogram h({1.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 1..100: exact interpolation, far from any bucket bound.
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_NEAR(h.quantile(0.9), 90.1, 1e-9);
  h.reset();
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
}

TEST(MetricsHistogram, SnapshotCarriesQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("perf.test.hist", {1.0, 10.0});
  h.record(2.0);
  h.record(4.0);
  h.record(6.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto it = snap.histograms.find("perf.test.hist");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_DOUBLE_EQ(it->second.p50, 4.0);
}

// ------------------------------------------------- cosearch_full e2e ----

// Drives the real pipeline binary with A3CS_PROFILE_CHROME and checks that
// the emitted trace is valid trace_events JSON with balanced scopes and
// work-annotated GEMM events — the acceptance contract of the Chrome
// exporter. Scale 0.001 keeps the run to a few seconds.
TEST(ChromeTrace, CosearchFullEmitsValidAnnotatedTrace) {
  TempFile trace("/perf_cosearch_trace.json");
  TempFile log("/perf_cosearch_trace.log");
  const std::string cmd = std::string("A3CS_SCALE=0.001 A3CS_PROFILE_CHROME=") +
                          trace.path() + " " + A3CS_COSEARCH_BIN + " > " +
                          log.path() + " 2>&1";
  ASSERT_EQ(run_command(cmd), 0);
  // Only the pipeline's run scope opens the Chrome session; the co-search
  // phase nested inside it must not try to open a second one.
  EXPECT_EQ(slurp(log.path()).find("already active"), std::string::npos);

  // The full-file balance/metadata check through the real tool.
  const std::string check_cmd = std::string(A3CS_BENCH_REPORT_BIN) +
                                " --chrome-check " + trace.path() +
                                " > /dev/null 2>&1";
  EXPECT_EQ(run_command(check_cmd), 0);

  // The trace is large (hundreds of thousands of events), so scan it
  // line-by-line — the writer emits one event per line — instead of parsing
  // the whole document in-process.
  std::ifstream in(trace.path());
  ASSERT_TRUE(in.is_open());
  std::string line;
  bool gemm_annotated = false;
  std::int64_t events = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"B\"") != std::string::npos ||
        line.find("\"ph\":\"E\"") != std::string::npos) {
      ++events;
    }
    if (line.find("\"name\":\"gemm\"") != std::string::npos &&
        line.find("\"ph\":\"E\"") != std::string::npos &&
        line.find("\"flops\":") != std::string::npos) {
      gemm_annotated = true;
    }
  }
  EXPECT_GT(events, 100);
  EXPECT_TRUE(gemm_annotated)
      << "no GEMM E event with flops annotation in " << trace.path();
}

// A3CS_PROFILE=1 without a trace: the pipeline's run scope outranks the
// co-search phase's, so the log carries exactly one profile table, the
// pipeline's, and the whole co-search phase is one pipeline-cosearch call.
TEST(RunScope, PipelineProfileWithoutTraceLogsOnePipelineTable) {
  TempFile log("/perf_profile_no_trace.log");
  const std::string cmd = std::string("A3CS_SCALE=0.001 A3CS_TRACE=0 ") +
                          "A3CS_PROFILE=1 " + A3CS_COSEARCH_BIN + " > " +
                          log.path() + " 2>&1";
  ASSERT_EQ(run_command(cmd), 0);
  const std::string text = slurp(log.path());

  int tables = 0;
  for (std::size_t at = text.find("wall-time profile:");
       at != std::string::npos;
       at = text.find("wall-time profile:", at + 1)) {
    ++tables;
  }
  EXPECT_EQ(tables, 1) << text;
  EXPECT_NE(text.find("pipeline wall-time profile:"), std::string::npos)
      << text;

  // Table row: "| pipeline-cosearch | <calls> | ...".
  std::istringstream lines(text);
  std::string line, calls;
  while (std::getline(lines, line)) {
    if (line.find("| pipeline-cosearch ") == std::string::npos) continue;
    std::istringstream cells(line);
    std::string cell;
    std::getline(cells, cell, '|');  // before the first bar
    std::getline(cells, cell, '|');  // scope
    std::getline(cells, cell, '|');  // calls
    std::istringstream(cell) >> calls;
  }
  EXPECT_EQ(calls, "1") << text;
}

}  // namespace
}  // namespace a3cs
