// Tests for the a3cs-lint rule engine (tools/a3cs_lint). Fixtures under
// tools/a3cs_lint/fixtures/ are linted through lint_source() with *virtual*
// paths, so one fixture exercises both sides of a path-scoped rule (e.g.
// det-wall-clock fires under src/nn/ but not bench/). The baseline
// suppression path goes through the real a3cs_lint binary (A3CS_LINT_BIN)
// against a throwaway tree, mirroring how ckpt_resume_test drives ckpt_run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph.h"
#include "lexer.h"
#include "model.h"
#include "report.h"
#include "rules.h"

namespace fs = std::filesystem;

namespace {

using a3cs_lint::build_file_model;
using a3cs_lint::FileModel;
using a3cs_lint::Finding;
using a3cs_lint::lint_source;
using a3cs_lint::TokKind;

std::string read_fixture(const std::string& name) {
  const fs::path p = fs::path(A3CS_LINT_FIXTURES) / name;
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints fixture `name` as if it lived at repo-relative `virtual_path`.
std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& virtual_path) {
  return lint_source(virtual_path, read_fixture(name));
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const auto& f : fs) n += (f.rule == rule) ? 1 : 0;
  return n;
}

std::string dump(const std::vector<Finding>& fs) {
  std::ostringstream out;
  for (const auto& f : fs) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Builds a virtual tree of FileModels for the cross-TU graph families.
std::vector<FileModel> tree(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<FileModel> models;
  for (const auto& [path, src] : files) {
    models.push_back(build_file_model(path, src));
  }
  return models;
}

// Mirrors the committed tools/a3cs_lint/layers.txt DAG.
constexpr const char* kTestLayers =
    "layer util tensor\n"
    "layer nn\n"
    "layer rl nas das accel arcade\n"
    "layer obs ckpt guard\n"
    "layer core\n"
    "layer serve fleet\n"
    "pervasive util obs\n";

constexpr const char* kServeHeader = "#pragma once\nint s();\n";

// ------------------------------------------------------- determinism ----

TEST(Lint, DetRandFiresOutsideUtil) {
  const auto fs = lint_fixture("det_rand.cc", "src/rl/sampler.cc");
  EXPECT_GE(count_rule(fs, "det-rand"), 3) << dump(fs);
  for (const auto& f : fs) {
    EXPECT_EQ(f.path, "src/rl/sampler.cc");
    EXPECT_GT(f.line, 0);
  }
}

TEST(Lint, DetRandExemptUnderUtil) {
  const auto fs = lint_fixture("det_rand.cc", "src/util/rng_extra.cc");
  EXPECT_EQ(count_rule(fs, "det-rand"), 0) << dump(fs);
}

TEST(Lint, InpRawParseFiresOutsideUtilAndTests) {
  const auto fs = lint_fixture("inp_raw_parse.cc", "examples/server.cpp");
  ASSERT_EQ(count_rule(fs, "inp-raw-parse"), 3) << dump(fs);
  std::vector<int> lines;
  for (const auto& f : fs) {
    if (f.rule == "inp-raw-parse") lines.push_back(f.line);
  }
  EXPECT_EQ(lines, (std::vector<int>{8, 9, 10}));
  const auto in_src = lint_fixture("inp_raw_parse.cc", "src/fleet/worker.cc");
  EXPECT_EQ(count_rule(in_src, "inp-raw-parse"), 3) << dump(in_src);
}

TEST(Lint, InpRawParseExemptUnderUtilAndTests) {
  for (const char* vpath : {"src/util/config.cc", "tests/util_test.cc"}) {
    const auto fs = lint_fixture("inp_raw_parse.cc", vpath);
    EXPECT_EQ(count_rule(fs, "inp-raw-parse"), 0) << vpath << "\n" << dump(fs);
  }
}

TEST(Lint, DetTimeSeedFires) {
  const auto fs = lint_fixture("det_time_seed.cc", "src/rl/rollout.cc");
  EXPECT_GE(count_rule(fs, "det-time-seed"), 1) << dump(fs);
}

TEST(Lint, DetWallClockScopedToNumericDirs) {
  const auto in_nn = lint_fixture("det_wall_clock.cc", "src/nn/fused.cc");
  ASSERT_EQ(count_rule(in_nn, "det-wall-clock"), 1) << dump(in_nn);
  for (const auto& f : in_nn) {
    if (f.rule == "det-wall-clock") {
      EXPECT_EQ(f.line, 6);
    }
  }
  // Timing code in bench/ (and src/obs/) is the sanctioned home for clocks.
  const auto in_bench = lint_fixture("det_wall_clock.cc", "bench/fused.cc");
  EXPECT_EQ(count_rule(in_bench, "det-wall-clock"), 0) << dump(in_bench);
}

TEST(Lint, DetBenchClockFiresOnlyInBench) {
  const auto in_bench =
      lint_fixture("det_bench_clock.cc", "bench/bench_custom.cc");
  // system_clock and std::time() fire; steady_clock in the same file must
  // stay silent — it is the sanctioned monotonic source.
  EXPECT_EQ(count_rule(in_bench, "det-bench-clock"), 2) << dump(in_bench);
  const auto in_obs =
      lint_fixture("det_bench_clock.cc", "src/obs/perf/run_meta.cc");
  EXPECT_EQ(count_rule(in_obs, "det-bench-clock"), 0) << dump(in_obs);
}

TEST(Lint, DetUnorderedIterOnlyInSerializationBodies) {
  const auto fs = lint_fixture("det_unordered_iter.cc", "src/rl/registry.cc");
  // One hit in save_state; the keyed lookup and the non-serialized
  // iteration in the same file must stay silent.
  EXPECT_EQ(count_rule(fs, "det-unordered-iter"), 1) << dump(fs);
}

// ----------------------------------------------------- serialization ----

TEST(Lint, SerPairFlagsOneSidedClasses) {
  const auto fs = lint_fixture("ser_pair.cc", "src/nas/snapshot.cc");
  ASSERT_EQ(count_rule(fs, "ser-pair"), 2) << dump(fs);
  bool saw_save_only = false;
  bool saw_load_only = false;
  for (const auto& f : fs) {
    if (f.rule != "ser-pair") continue;
    saw_save_only |= f.message.find("SaveOnly") != std::string::npos;
    saw_load_only |= f.message.find("LoadOnly") != std::string::npos;
    // Paired and CallerOnly must not be named.
    EXPECT_EQ(f.message.find("Paired"), std::string::npos) << f.message;
    EXPECT_EQ(f.message.find("CallerOnly"), std::string::npos) << f.message;
  }
  EXPECT_TRUE(saw_save_only) << dump(fs);
  EXPECT_TRUE(saw_load_only) << dump(fs);
}

TEST(Lint, SerRawIoScopedToSerializationLayers) {
  const auto in_ckpt = lint_fixture("ser_raw_io.cc", "src/ckpt/header.cc");
  EXPECT_GE(count_rule(in_ckpt, "ser-raw-io"), 3) << dump(in_ckpt);
  // Outside src/ckpt/ and src/util/ raw byte IO is someone else's problem.
  const auto in_rl = lint_fixture("ser_raw_io.cc", "src/rl/header.cc");
  EXPECT_EQ(count_rule(in_rl, "ser-raw-io"), 0) << dump(in_rl);
  // The explicit-LE helpers are the one sanctioned home for raw IO.
  const auto in_sio = lint_fixture("ser_raw_io.cc", "src/util/state_io.cc");
  EXPECT_EQ(count_rule(in_sio, "ser-raw-io"), 0) << dump(in_sio);
}

// ------------------------------------------------------- concurrency ----

TEST(Lint, ConcRawThreadFiresOutsideThreadPool) {
  const auto fs = lint_fixture("conc_thread.cc", "src/das/worker.cc");
  EXPECT_GE(count_rule(fs, "conc-raw-thread"), 2) << dump(fs);
  const auto pool =
      lint_fixture("conc_thread.cc", "src/util/thread_pool.cc");
  EXPECT_EQ(count_rule(pool, "conc-raw-thread"), 0) << dump(pool);
}

TEST(Lint, ConcRawProcessConfinedToFleet) {
  // fork / execv / waitpid fire anywhere outside src/fleet/...
  const auto fs = lint_fixture("conc_process.cc", "src/core/runner.cc");
  EXPECT_EQ(count_rule(fs, "conc-raw-process"), 3) << dump(fs);
  // ...but the supervisor implementation itself is the sanctioned home...
  const auto fleet =
      lint_fixture("conc_process.cc", "src/fleet/supervisor.cc");
  EXPECT_EQ(count_rule(fleet, "conc-raw-process"), 0) << dump(fleet);
  // ...and member calls that happen to share a POSIX name never fire
  // (asserted via the exact count above: the fixture's sup.fork() /
  // sup->waitpid() lines are not among the three findings).
  for (const auto& f : fs) {
    if (f.rule == "conc-raw-process") {
      EXPECT_LE(f.line, 19) << dump(fs);
    }
  }
}

TEST(Lint, ConcStaticLocalAndMutableGlobal) {
  const auto fs = lint_fixture("conc_static.cc", "src/obs/stats.cc");
  ASSERT_EQ(count_rule(fs, "conc-mutable-global"), 1) << dump(fs);
  ASSERT_EQ(count_rule(fs, "conc-static-local"), 1) << dump(fs);
  for (const auto& f : fs) {
    if (f.rule == "conc-mutable-global") {
      EXPECT_EQ(f.line, 10);
    }
    if (f.rule == "conc-static-local") {
      EXPECT_EQ(f.line, 16);
    }
  }
}

// ---------------------------------------------------- architecture ----

TEST(Lint, ArchIntrinsicsScopedToBackendDir) {
  // Outside src/tensor/backend/ the include and every intrinsic fire; the
  // prose mention of immintrin.h in a comment must stay silent.
  const auto in_nn = lint_fixture("arch_intrinsics.cc", "src/nn/fast_math.cc");
  EXPECT_GE(count_rule(in_nn, "arch-intrinsics-scoped"), 5) << dump(in_nn);
  bool saw_include = false;
  for (const auto& f : in_nn) {
    if (f.rule != "arch-intrinsics-scoped") continue;
    EXPECT_NE(f.line, 6) << "comment mention fired: " << dump(in_nn);
    saw_include |= f.line == 4;
  }
  EXPECT_TRUE(saw_include) << dump(in_nn);

  // The backend directory is the sanctioned home for SIMD.
  const auto in_backend = lint_fixture(
      "arch_intrinsics.cc", "src/tensor/backend/kernels_avx2.cc");
  EXPECT_EQ(count_rule(in_backend, "arch-intrinsics-scoped"), 0)
      << dump(in_backend);
}

// ----------------------------------------------------------- hygiene ----

TEST(Lint, HygPragmaOnceRequiredInHeaders) {
  const auto fs = lint_fixture("hyg_missing_pragma.h", "src/util/value.h");
  EXPECT_EQ(count_rule(fs, "hyg-pragma-once"), 1) << dump(fs);
  // Non-headers are exempt.
  const auto cc = lint_source("src/util/value.cc",
                              read_fixture("hyg_missing_pragma.h"));
  EXPECT_EQ(count_rule(cc, "hyg-pragma-once"), 0) << dump(cc);
}

TEST(Lint, HygUsingNamespaceInHeader) {
  const auto fs = lint_fixture("hyg_using_namespace.h", "src/util/names.h");
  EXPECT_EQ(count_rule(fs, "hyg-using-namespace"), 1) << dump(fs);
  // A leading comment before #pragma once is fine.
  EXPECT_EQ(count_rule(fs, "hyg-pragma-once"), 0) << dump(fs);
}

// ------------------------------------------------------- suppression ----

TEST(Lint, InlineSuppressionSilencesSameLineAndLineAbove) {
  const auto fs = lint_fixture("suppressed.cc", "src/rl/sampler.cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lint, SuppressionIsPerRule) {
  // A marker for the wrong rule must not silence the finding.
  const auto fs = lint_source(
      "src/rl/x.cc",
      "int f() { return rand(); }  // A3CS_LINT(conc-raw-thread)\n");
  EXPECT_EQ(count_rule(fs, "det-rand"), 1) << dump(fs);
}

TEST(Lint, CleanFixturePassesEverywhere) {
  for (const char* vpath : {"src/nn/clean.cc", "src/ckpt/clean.cc",
                            "src/obs/clean.cc", "tests/clean.cc"}) {
    const auto fs = lint_fixture("clean.cc", vpath);
    EXPECT_TRUE(fs.empty()) << vpath << "\n" << dump(fs);
  }
}

// -------------------------------------------------------------- lexer ----

TEST(Lex, DigitSeparatorsAreOneNumber) {
  const auto lexed = a3cs_lint::lex("int x = 1'000'000;\n");
  int numbers = 0;
  for (const auto& t : lexed.tokens) {
    numbers += (t.kind == TokKind::kNumber) ? 1 : 0;
    // The separators must not be mislexed as char literals.
    EXPECT_NE(t.kind, TokKind::kChar) << t.text;
  }
  EXPECT_EQ(numbers, 1);
}

TEST(Lex, EncodingPrefixedLiterals) {
  const auto lexed = a3cs_lint::lex(
      "auto a = u8\"x\"; auto b = L\"y\"; auto c = u\"z\"; auto d = U\"w\";\n"
      "auto e = L'q'; auto f = u'r';\n");
  int strings = 0;
  int chars = 0;
  for (const auto& t : lexed.tokens) {
    strings += (t.kind == TokKind::kString) ? 1 : 0;
    chars += (t.kind == TokKind::kChar) ? 1 : 0;
    if (t.kind == TokKind::kIdent) {
      // The prefix must fuse into the literal, not lex as an identifier.
      EXPECT_NE(t.text, "u8");
      EXPECT_NE(t.text, "L");
    }
  }
  EXPECT_EQ(strings, 4);
  EXPECT_EQ(chars, 2);
}

TEST(Lex, LineSplicedCommentSwallowsNextLine) {
  const auto lexed = a3cs_lint::lex(
      "// hidden \\\n"
      "rand();\n"
      "int after = 1;\n");
  bool saw_after = false;
  for (const auto& t : lexed.tokens) {
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "rand");
    }
    if (t.text == "after") {
      saw_after = true;
      // Line numbering must survive the splice.
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(Lex, RawStringCustomDelimiterDoesNotCloseEarly) {
  const auto lexed = a3cs_lint::lex(
      "const char* s = R\"x(body )\" still)x\"; int tail = 1;\n"
      "const char* w = LR\"y(wide )\" body)y\"; int tail2 = 2;\n");
  int strings = 0;
  bool saw_tail = false;
  bool saw_tail2 = false;
  for (const auto& t : lexed.tokens) {
    strings += (t.kind == TokKind::kString) ? 1 : 0;
    saw_tail |= t.text == "tail";
    saw_tail2 |= t.text == "tail2";
  }
  EXPECT_EQ(strings, 2);
  EXPECT_TRUE(saw_tail);
  EXPECT_TRUE(saw_tail2);
}

TEST(Lex, EdgeCaseFixtureLintsClean) {
  // The fixture hides rand()/detach() inside a spliced comment and raw
  // strings; a mislex would leak them into the token stream and fire
  // det-rand / conc-raw-thread.
  const auto fs = lint_fixture("lex_edge.cc", "src/rl/edge.cc");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ----------------------------------------------------- arch-layering ----

TEST(GraphLayering, ParseLayersSpec) {
  const auto spec = a3cs_lint::parse_layers(
      "# comment\nlayer a b\nlayer c\npervasive p\n");
  ASSERT_TRUE(spec.valid);
  EXPECT_EQ(spec.rank.at("a"), 0);
  EXPECT_EQ(spec.rank.at("b"), 0);
  EXPECT_EQ(spec.rank.at("c"), 1);
  EXPECT_EQ(spec.pervasive.count("p"), 1u);
  EXPECT_FALSE(a3cs_lint::parse_layers("strata a b\n").valid);
}

TEST(GraphLayering, UpwardIncludeFires) {
  const auto models = tree({
      {"src/nn/bad.cc", read_fixture("layering_up.cc")},
      {"src/serve/service.h", kServeHeader},
  });
  const auto fs = a3cs_lint::check_layering(models, kTestLayers);
  ASSERT_EQ(count_rule(fs, "arch-layering"), 1) << dump(fs);
  EXPECT_EQ(fs[0].path, "src/nn/bad.cc");
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_NE(fs[0].message.find("upward include"), std::string::npos);
}

TEST(GraphLayering, SameRankIncludeIsSilent) {
  // fleet and serve share the top rank, and the util include is pervasive.
  const auto models = tree({
      {"src/fleet/ok.cc", read_fixture("layering_up.cc")},
      {"src/serve/service.h", kServeHeader},
  });
  const auto fs = a3cs_lint::check_layering(models, kTestLayers);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(GraphLayering, ModuleCycleFires) {
  // nas <-> das are same-rank (no upward finding) but still a cycle.
  const auto models = tree({
      {"src/das/b.h", "#pragma once\n#include \"nas/a.h\"\n"},
      {"src/nas/a.h", "#pragma once\n#include \"das/b.h\"\n"},
  });
  const auto fs = a3cs_lint::check_layering(models, kTestLayers);
  ASSERT_EQ(count_rule(fs, "arch-layering"), 1) << dump(fs);
  EXPECT_NE(fs[0].message.find("module cycle"), std::string::npos);
  EXPECT_NE(fs[0].message.find("das"), std::string::npos);
  EXPECT_NE(fs[0].message.find("nas"), std::string::npos);
}

TEST(GraphLayering, MissingLayersFileIsAFinding) {
  const auto models = tree({{"src/nn/x.cc", "int f();\n"}});
  const auto fs = a3cs_lint::check_layering(models, "");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].path, "tools/a3cs_lint/layers.txt");
  EXPECT_EQ(fs[0].rule, "arch-layering");
}

TEST(GraphLayering, InlineSuppressionSilencesUpwardInclude) {
  const auto models = tree({
      {"src/nn/bad.cc", read_fixture("layering_up_suppressed.cc")},
      {"src/serve/service.h", kServeHeader},
  });
  const auto fs = a3cs_lint::lint_tree(models, kTestLayers);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------- conc-lock-order ----

TEST(GraphLockOrder, CrossTuCycleFires) {
  const auto models = tree({
      {"src/core/ab.cc", read_fixture("lock_order_ab.cc")},
      {"src/core/ba.cc", read_fixture("lock_order_ba.cc")},
  });
  const auto fs = a3cs_lint::check_lock_order(models);
  // One finding per edge of the cycle, each at its own acquisition site.
  ASSERT_EQ(count_rule(fs, "conc-lock-order"), 2) << dump(fs);
  for (const auto& f : fs) {
    EXPECT_NE(f.message.find("lock-order cycle"), std::string::npos);
    EXPECT_NE(f.message.find("PoolA::mu_a"), std::string::npos);
    EXPECT_NE(f.message.find("PoolB::mu_b"), std::string::npos);
  }
}

TEST(GraphLockOrder, ConsistentOrderIsSilent) {
  const auto one_sided =
      tree({{"src/core/ab.cc", read_fixture("lock_order_ab.cc")}});
  EXPECT_TRUE(a3cs_lint::check_lock_order(one_sided).empty());
}

TEST(GraphLockOrder, ForkUnderLockFiresOnlyInFleet) {
  const auto fleet =
      tree({{"src/fleet/spawn.cc", read_fixture("lock_fork.cc")}});
  const auto fs = a3cs_lint::check_lock_order(fleet);
  // spawn_locked's fork fires; spawn_clean's fork (guard scope closed) not.
  ASSERT_EQ(count_rule(fs, "conc-lock-order"), 1) << dump(fs);
  EXPECT_EQ(fs[0].line, 15);
  EXPECT_NE(fs[0].message.find("fork()"), std::string::npos);

  const auto core = tree({{"src/core/spawn.cc", read_fixture("lock_fork.cc")}});
  EXPECT_TRUE(a3cs_lint::check_lock_order(core).empty());
}

TEST(GraphLockOrder, InlineSuppressionSilencesFork) {
  const auto models =
      tree({{"src/fleet/spawn.cc", read_fixture("lock_fork_suppressed.cc")}});
  const auto fs = a3cs_lint::lint_tree(models, kTestLayers);
  EXPECT_EQ(count_rule(fs, "conc-lock-order"), 0) << dump(fs);
}

// ------------------------------------------------- ser-field-coverage ----

TEST(GraphSerCoverage, MissingFieldAndAggregateFieldFire) {
  const auto models = tree({{"src/rl/grid.cc", read_fixture("ser_cov.cc")}});
  const auto fs = a3cs_lint::check_ser_coverage(models);
  ASSERT_EQ(count_rule(fs, "ser-field-coverage"), 2) << dump(fs);
  bool saw_decay = false;
  bool saw_cols = false;
  for (const auto& f : fs) {
    saw_decay |= f.message.find("Grid::decay_") != std::string::npos;
    saw_cols |= f.message.find("Extent::cols") != std::string::npos;
  }
  EXPECT_TRUE(saw_decay) << dump(fs);
  EXPECT_TRUE(saw_cols) << dump(fs);
}

TEST(GraphSerCoverage, FullCoverageIsSilent) {
  const auto models =
      tree({{"src/rl/grid.cc", read_fixture("ser_cov_ok.cc")}});
  const auto fs = a3cs_lint::check_ser_coverage(models);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(GraphSerCoverage, InlineSuppressionSilencesFields) {
  const auto models =
      tree({{"src/rl/grid.cc", read_fixture("ser_cov_suppressed.cc")}});
  const auto fs = a3cs_lint::lint_tree(models, kTestLayers);
  EXPECT_EQ(count_rule(fs, "ser-field-coverage"), 0) << dump(fs);
}

// ------------------------------------------------------- json report ----

TEST(Report, JsonRoundTripsFindings) {
  const std::vector<Finding> in = {
      {"src/a.cc", 3, "det-rand", "call to \"rand\" — use util\\rng\n\ttab"},
      {"src/b.h", 7, "arch-layering", "ünïcode and / slashes"},
  };
  const std::string text = a3cs_lint::render_json(in, 214);
  EXPECT_EQ(text.rfind("{\"schema\":\"a3cs-lint/1\",", 0), 0u) << text;
  EXPECT_EQ(text.back(), '\n');

  std::vector<Finding> out;
  std::size_t files = 0;
  ASSERT_TRUE(a3cs_lint::parse_json(text, &out, &files)) << text;
  EXPECT_EQ(files, 214u);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].path, in[i].path);
    EXPECT_EQ(out[i].line, in[i].line);
    EXPECT_EQ(out[i].rule, in[i].rule);
    EXPECT_EQ(out[i].message, in[i].message);
  }
  // Byte-stable: re-rendering the parsed findings reproduces the bytes.
  EXPECT_EQ(a3cs_lint::render_json(out, files), text);
}

TEST(Report, JsonParserIsStrict) {
  const std::string empty = a3cs_lint::render_json({}, 0);
  std::vector<Finding> out;
  std::size_t files = 99;
  EXPECT_TRUE(a3cs_lint::parse_json(empty, &out, &files));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(files, 0u);
  // files_scanned may be null.
  EXPECT_TRUE(a3cs_lint::parse_json(empty, &out, nullptr));

  EXPECT_FALSE(a3cs_lint::parse_json("", &out, nullptr));
  EXPECT_FALSE(a3cs_lint::parse_json("{}", &out, nullptr));
  EXPECT_FALSE(a3cs_lint::parse_json(empty + "x", &out, nullptr));
  std::string wrong_schema = empty;
  wrong_schema.replace(wrong_schema.find("a3cs-lint/1"), 11, "a3cs-lint/9");
  EXPECT_FALSE(a3cs_lint::parse_json(wrong_schema, &out, nullptr));
}

// ----------------------------------- parallel determinism (via binary) ----

// The whole-tree report must be byte-identical at any A3CS_THREADS value —
// the same determinism contract as the numeric kernels.
TEST(Lint, ParallelLintIsByteIdentical) {
  const fs::path out_dir = fs::path(::testing::TempDir()) / "a3cs_lint_par";
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  const std::string bin = A3CS_LINT_BIN;
  const std::string root = A3CS_LINT_REPO_ROOT;

  auto run = [&](int threads, const std::string& extra, const fs::path& out) {
    const std::string cmd = "cd / && A3CS_THREADS=" + std::to_string(threads) +
                            " \"" + bin + "\" --repo-root \"" + root + "\"" +
                            extra + " > \"" + out.string() + "\" 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 0) << "tree must lint clean: " << cmd;
  };

  run(1, "", out_dir / "t1.txt");
  run(4, "", out_dir / "t4.txt");
  run(8, "", out_dir / "t8.txt");
  const std::string t1 = slurp(out_dir / "t1.txt");
  EXPECT_NE(t1.find("a3cs_lint: clean"), std::string::npos) << t1;
  EXPECT_EQ(t1, slurp(out_dir / "t4.txt"));
  EXPECT_EQ(t1, slurp(out_dir / "t8.txt"));

  run(1, " --json", out_dir / "j1.json");
  run(8, " --json", out_dir / "j8.json");
  const std::string j1 = slurp(out_dir / "j1.json");
  EXPECT_EQ(j1, slurp(out_dir / "j8.json"));
  std::vector<Finding> parsed;
  std::size_t files = 0;
  EXPECT_TRUE(a3cs_lint::parse_json(j1, &parsed, &files)) << j1;
  EXPECT_TRUE(parsed.empty());
  EXPECT_GT(files, 0u);
  fs::remove_all(out_dir);
}

// ---------------------------------- arch-layering e2e (via binary) ----

// End-to-end through the driver: a throwaway tree with an upward include
// fails, first on the missing layers.txt, then on the include itself, and a
// baseline entry restores exit 0.
TEST(Lint, LayeringBaselineThroughDriver) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "a3cs_lint_layer_tree";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "nn");
  fs::create_directories(root / "src" / "serve");
  {
    std::ofstream bad(root / "src" / "nn" / "bad.cc");
    bad << "#include \"serve/x.h\"\nint f() { return 1; }\n";
  }
  {
    std::ofstream hdr(root / "src" / "serve" / "x.h");
    hdr << "#pragma once\nint g();\n";
  }
  const std::string bin = A3CS_LINT_BIN;
  auto run = [&](const std::string& extra) {
    const std::string cmd = "cd / && \"" + bin + "\" --repo-root \"" +
                            root.string() + "\"" + extra +
                            " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc));
    return WEXITSTATUS(rc);
  };

  // No layers.txt: the missing spec is itself a finding.
  EXPECT_EQ(run(""), 1);

  fs::create_directories(root / "tools" / "a3cs_lint");
  {
    std::ofstream layers(root / "tools" / "a3cs_lint" / "layers.txt");
    layers << "layer nn\nlayer serve\n";
  }
  EXPECT_EQ(run(""), 1);           // the upward include still fails
  EXPECT_EQ(run(" --graph-only"), 1);  // also through the fail-fast stage

  {
    std::ofstream base(root / "baseline.txt");
    base << "src/nn/bad.cc arch-layering\n";
  }
  EXPECT_EQ(
      run(" --baseline \"" + (root / "baseline.txt").string() + "\""), 0);
  fs::remove_all(root);
}

// ---------------------------------------------------------- catalog ----

TEST(Lint, RuleCatalogSortedAndComplete) {
  const auto catalog = a3cs_lint::rule_catalog();
  ASSERT_EQ(catalog.size(), 19u);
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1].first, catalog[i].first);
  }
}

// ----------------------------------------- A3CK layout fingerprint ----

constexpr const char* kHeaderV3 =
    "#pragma once\n"
    "constexpr int kCkptFormatVersion = 3;\n"
    "struct SectionHeader { int kind; long payload_len; };\n";

TEST(Lint, FingerprintIgnoresCommentsAndWhitespace) {
  const std::string doc_edit =
      "#pragma once\n"
      "// A3CK on-disk layout. Bump kCkptFormatVersion when it changes.\n"
      "constexpr int kCkptFormatVersion = 3;\n\n"
      "struct SectionHeader {\n  int kind;\n  long payload_len;\n};\n";
  EXPECT_EQ(a3cs_lint::layout_fingerprint(kHeaderV3),
            a3cs_lint::layout_fingerprint(doc_edit));
  const std::string layout_edit =
      "#pragma once\n"
      "constexpr int kCkptFormatVersion = 3;\n"
      "struct SectionHeader { int kind; long payload_len; int crc; };\n";
  EXPECT_NE(a3cs_lint::layout_fingerprint(kHeaderV3),
            a3cs_lint::layout_fingerprint(layout_edit));
}

TEST(Lint, FingerprintParsesFormatVersion) {
  EXPECT_EQ(a3cs_lint::parse_format_version(kHeaderV3), 3);
  EXPECT_EQ(a3cs_lint::parse_format_version("struct S {};\n"), -1);
}

TEST(Lint, FingerprintMatchIsClean) {
  const std::string record = a3cs_lint::render_fingerprint_file(kHeaderV3);
  const auto fs = a3cs_lint::check_layout_fingerprint("src/ckpt/section_file.h",
                                                      kHeaderV3, record);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lint, FingerprintLayoutChangeWithoutBumpFires) {
  const std::string record = a3cs_lint::render_fingerprint_file(kHeaderV3);
  const std::string changed =
      "#pragma once\n"
      "constexpr int kCkptFormatVersion = 3;\n"
      "struct SectionHeader { int kind; long payload_len; int crc; };\n";
  const auto fs = a3cs_lint::check_layout_fingerprint("src/ckpt/section_file.h",
                                                      changed, record);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].rule, "ser-layout-fingerprint");
}

TEST(Lint, FingerprintBumpWithoutRefreshFires) {
  const std::string record = a3cs_lint::render_fingerprint_file(kHeaderV3);
  const std::string bumped =
      "#pragma once\n"
      "constexpr int kCkptFormatVersion = 4;\n"
      "struct SectionHeader { int kind; long payload_len; int crc; };\n";
  const auto fs = a3cs_lint::check_layout_fingerprint("src/ckpt/section_file.h",
                                                      bumped, record);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].rule, "ser-layout-fingerprint");
}

TEST(Lint, FingerprintMissingRecordFires) {
  const auto fs = a3cs_lint::check_layout_fingerprint("src/ckpt/section_file.h",
                                                      kHeaderV3, "");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].rule, "ser-layout-fingerprint");
}

// ------------------------------------------- baseline (via binary) ----

// End-to-end: seed a throwaway tree with a violation, confirm the binary
// fails on it, then confirm a baseline entry restores exit 0.
TEST(Lint, BaselineFileSilencesThroughDriver) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "a3cs_lint_baseline_tree";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "rl");
  {
    std::ofstream out(root / "src" / "rl" / "bad.cc");
    out << "int f() { return rand(); }\n";
  }
  const std::string bin = A3CS_LINT_BIN;
  const std::string base = "\"" + bin + "\" --repo-root \"" + root.string() +
                           "\" src/rl/bad.cc > /dev/null 2>&1";

  const int without = std::system(("cd / && " + base).c_str());
  ASSERT_TRUE(WIFEXITED(without));
  EXPECT_EQ(WEXITSTATUS(without), 1);

  {
    std::ofstream out(root / "baseline.txt");
    out << "# temporary debt, tracked\n"
        << "src/rl/bad.cc det-rand\n";
  }
  const std::string with_baseline =
      "\"" + bin + "\" --repo-root \"" + root.string() + "\" --baseline \"" +
      (root / "baseline.txt").string() + "\" src/rl/bad.cc > /dev/null 2>&1";
  const int with = std::system(("cd / && " + with_baseline).c_str());
  ASSERT_TRUE(WIFEXITED(with));
  EXPECT_EQ(WEXITSTATUS(with), 0);
  fs::remove_all(root);
}

}  // namespace
