// Unit coverage for the fleet subsystem's deterministic core: the line
// protocol (round-trip exactness + malformed-input hardening), the merged
// Pareto frontier (dominance, content dedupe, shard purge, byte-stable
// rendering), the env-driven fault-plan parser, and the supervision config
// env overrides. Process-level kill/hang/drop behaviour lives in
// fleet_resume_test.cc.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fault.h"
#include "fleet/frontier.h"
#include "fleet/protocol.h"
#include "fleet/supervisor.h"
#include "obs/jsonl.h"
#include "util/config.h"

namespace a3cs::fleet {
namespace {

ParetoPoint make_point(int shard, std::int64_t iter, double score, double fps,
                       int dsp) {
  ParetoPoint p;
  p.shard = shard;
  p.iter = iter;
  p.frames = iter * 8;
  p.score = score;
  p.fps = fps;
  p.dsp = dsp;
  p.arch = "conv3-conv5";
  p.accel = "pe=8x8;noc=1";
  return p;
}

// ------------------------------------------------------------- protocol ----

TEST(FleetProtocol, HeartbeatRoundTrip) {
  const std::string line = format_heartbeat(3, 41, 328);
  EXPECT_EQ(line, "hb 3 iter=41 frames=328\n");
  const Msg msg = parse_message("hb 3 iter=41 frames=328");
  EXPECT_EQ(msg.kind, MsgKind::kHeartbeat);
  EXPECT_EQ(msg.shard, 3);
  EXPECT_EQ(msg.iter, 41);
  EXPECT_EQ(msg.frames, 328);
}

TEST(FleetProtocol, PointRoundTripIsByteExact) {
  // 0.1 has no finite binary expansion: %.17g must round-trip it exactly,
  // the property the bit-exact frontier contract leans on.
  const ParetoPoint p = make_point(1, 7, 0.1, 12345.678901234567, 448);
  const std::string line = format_point(p);
  const Msg msg = parse_message(line.substr(0, line.size() - 1));
  ASSERT_EQ(msg.kind, MsgKind::kPoint);
  EXPECT_EQ(msg.point.score, p.score);
  EXPECT_EQ(msg.point.fps, p.fps);
  EXPECT_EQ(msg.point.dsp, p.dsp);
  EXPECT_EQ(msg.point.arch, p.arch);
  EXPECT_EQ(msg.point.accel, p.accel);
  // Re-rendering the parsed point reproduces the original line byte-for-byte.
  EXPECT_EQ(format_point(msg.point), line);
}

TEST(FleetProtocol, DivergedCarriesReason) {
  const std::string line = format_diverged(2, 9, "loss spiked to nan");
  const Msg msg = parse_message(line.substr(0, line.size() - 1));
  ASSERT_EQ(msg.kind, MsgKind::kDiverged);
  EXPECT_EQ(msg.shard, 2);
  EXPECT_EQ(msg.iter, 9);
  EXPECT_EQ(msg.reason, "loss spiked to nan");
}

TEST(FleetProtocol, MalformedLinesNeverThrow) {
  const std::vector<std::string> bad = {
      "",
      "bogus 1 iter=2 frames=3",
      "hb",
      "hb x iter=2 frames=3",
      "hb 1 iter=abc frames=3",
      "hb 1 frames=3",
      "point 1 iter=2 frames=3",  // missing score/fps/dsp/arch/accel
      "point 1 iter=2 frames=3 score=nope fps=1 dsp=2 arch=a accel=b",
      "done 1 iter=",
      "diverged 5",  // no iter
  };
  for (const std::string& line : bad) {
    EXPECT_EQ(parse_message(line).kind, MsgKind::kUnknown) << line;
  }
}

// ------------------------------------------------------------- frontier ----

TEST(FleetFrontier, DominatedPointsAreFiltered) {
  FrontierSet set;
  EXPECT_TRUE(set.insert(make_point(0, 1, 1.0, 100.0, 500)));
  // Dominated: worse on every axis.
  EXPECT_TRUE(set.insert(make_point(0, 2, 0.5, 50.0, 600)));
  // Incomparable: worse score, better fps.
  EXPECT_TRUE(set.insert(make_point(1, 1, 0.8, 200.0, 500)));
  const auto frontier = set.frontier();
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier[0].score, 1.0);  // sorted best-score-first
  EXPECT_EQ(frontier[1].score, 0.8);
}

TEST(FleetFrontier, EqualAxesAreMutuallyNonDominating) {
  const ParetoPoint a = make_point(0, 1, 1.0, 100.0, 500);
  const ParetoPoint b = make_point(1, 1, 1.0, 100.0, 500);
  EXPECT_FALSE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
}

TEST(FleetFrontier, ContentDedupeAbsorbsRedeliveredPoints) {
  // A worker restarted from its checkpoint ring re-emits the restored
  // boundary's point byte-identically; inserting it again must be a no-op.
  FrontierSet set;
  const ParetoPoint p = make_point(0, 5, 0.25, 1000.0, 448);
  EXPECT_TRUE(set.insert(p));
  EXPECT_FALSE(set.insert(p));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FleetFrontier, EraseShardPurgesAllItsPoints) {
  FrontierSet set;
  set.insert(make_point(0, 1, 1.0, 100.0, 500));
  set.insert(make_point(0, 2, 0.9, 300.0, 500));
  set.insert(make_point(1, 1, 0.5, 400.0, 200));
  EXPECT_EQ(set.count_for_shard(0), 2);
  EXPECT_EQ(set.erase_shard(0), 2);
  EXPECT_EQ(set.count_for_shard(0), 0);
  const auto frontier = set.frontier();
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0].shard, 1);
}

TEST(FleetFrontier, RenderParseRoundTrip) {
  FrontierSet set;
  set.insert(make_point(1, 3, 0.1, 5000.0, 296));
  set.insert(make_point(0, 2, 0.7, 2000.0, 448));
  const auto frontier = set.frontier();
  const std::string text = render_frontier(frontier);
  const auto parsed = parse_frontier(text);
  ASSERT_EQ(parsed.size(), frontier.size());
  EXPECT_EQ(render_frontier(parsed), text);
}

TEST(FleetFrontier, ParseRejectsTruncatedFrontier) {
  FrontierSet set;
  set.insert(make_point(0, 1, 1.0, 100.0, 500));
  set.insert(make_point(1, 1, 0.5, 400.0, 200));
  std::string text = render_frontier(set.frontier());
  text.resize(text.rfind("point "));  // drop the final point line
  EXPECT_THROW(parse_frontier(text), std::runtime_error);
  EXPECT_THROW(parse_frontier("points 1\nnot a point line\n"),
               std::runtime_error);
}

// ---------------------------------------------------------------- fault ----

TEST(FleetFault, ParsesFullPlan) {
  const auto f =
      FleetFaultInjector::parse("0@3,2@7", "1@4", "3@2", "0,2");
  EXPECT_EQ(f.kill_at(0), 3);
  EXPECT_EQ(f.kill_at(2), 7);
  EXPECT_EQ(f.kill_at(1), 0);
  EXPECT_EQ(f.hang_at(1), 4);
  EXPECT_EQ(f.diverge_at(3), 2);
  EXPECT_TRUE(f.corrupt_tip(0));
  EXPECT_FALSE(f.corrupt_tip(1));
  EXPECT_TRUE(f.any());
}

TEST(FleetFault, EmptyPlanHasNoFaults) {
  const auto f = FleetFaultInjector::parse("", "", "", "");
  EXPECT_FALSE(f.any());
  EXPECT_EQ(f.kill_at(0), 0);
}

TEST(FleetFault, MalformedPlanThrows) {
  EXPECT_THROW(FleetFaultInjector::parse("0", "", "", ""),
               std::runtime_error);
  EXPECT_THROW(FleetFaultInjector::parse("a@3", "", "", ""),
               std::runtime_error);
  EXPECT_THROW(FleetFaultInjector::parse("0@0", "", "", ""),
               std::runtime_error);
  EXPECT_THROW(FleetFaultInjector::parse("-1@3", "", "", ""),
               std::runtime_error);
  EXPECT_THROW(FleetFaultInjector::parse("", "", "", "x"),
               std::runtime_error);
}

// The shared plan grammar is whole-entry strict: trailing junk, a second
// separator, a missing iteration or a stray iteration all fail, naming the
// knob and the plan.
TEST(FleetFault, PlanGrammarIsStrict) {
  const auto expect_bad = [](const char* name, const std::string& kill,
                             const std::string& corrupt, const char* text) {
    try {
      FleetFaultInjector::parse(kill, "", "", corrupt);
      ADD_FAILURE() << text << " was accepted";
    } catch (const util::InputError& e) {
      const std::string want = std::string(name) + "=\"" + text + "\"";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  };
  for (const char* bad : {"0@3abc", "1@4@9", "2x", "2", "0@3,", " 0@3"}) {
    expect_bad("A3CS_FLEET_KILL", bad, "", bad);
  }
  for (const char* bad : {"2x", "1@4", "0,,1"}) {
    expect_bad("A3CS_FLEET_CORRUPT_TIP", "", bad, bad);
  }
}

// A bad knob fails the fleet once, before any worker is spawned, instead of
// burning every shard's restart budget.
TEST(FleetFault, BadKnobExitsTwoWithoutSpawning) {
  const auto out = std::filesystem::temp_directory_path() /
                   ("a3cs_fleet_badknob_" + std::to_string(::getpid()));
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(out);
  const std::string log = (out / "log.txt").string();
  const std::string cmd = std::string("env A3CS_GUARD=heel ") +
                          COSEARCH_FLEET_BIN + " Catch --workers 2 --out " +
                          out.string() + " > " + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::ifstream in(log);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("A3CS_GUARD=\"heel\""), std::string::npos) << text;
  EXPECT_FALSE(std::filesystem::exists(out / "shard-0")) << "worker spawned";
  std::filesystem::remove_all(out);
}

// --------------------------------------------------------------- traces ----

// Under A3CS_PROFILE_CHROME the supervisor keeps the given path and each
// worker writes its own <out>/shard-K.chrome.json: every file must parse as
// one JSON document whose Begin/End events balance per thread.
TEST(FleetTrace, EveryShardWritesItsOwnBalancedChromeTrace) {
  const auto out = std::filesystem::temp_directory_path() /
                   ("a3cs_fleet_chrome_" + std::to_string(::getpid()));
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(out);
  const std::string given = (out / "fleet.chrome.json").string();
  const std::string cmd = "env A3CS_PROFILE_CHROME=" + given + " " +
                          COSEARCH_FLEET_BIN + " Catch --workers 3 " +
                          "--frames 64 --backoff 0.05 --out " + out.string() +
                          " > " + (out / "log.txt").string() + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::vector<std::string> files = {given};
  for (int k = 0; k < 3; ++k) {
    files.push_back((out / ("shard-" + std::to_string(k) + ".chrome.json"))
                        .string());
  }
  for (const std::string& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const obs::JsonValue root = obs::JsonValue::parse(text);
    std::map<double, std::vector<std::string>> open;  // tid -> B names
    int begins = 0;
    for (const obs::JsonValue& ev : root.find("traceEvents")->as_array()) {
      auto& stack = open[ev.number_or("tid", 0)];
      if (ev.string_or("ph", "") == "B") {
        stack.push_back(ev.string_or("name", ""));
        ++begins;
        continue;
      }
      ASSERT_FALSE(stack.empty()) << "unbalanced E in " << path;
      EXPECT_EQ(stack.back(), ev.string_or("name", "")) << path;
      stack.pop_back();
    }
    for (const auto& [tid, stack] : open) {
      EXPECT_TRUE(stack.empty()) << "unclosed B on tid " << tid << " in "
                                 << path;
    }
    // The workers run profiled co-searches; the supervisor runs none.
    if (path != given) {
      EXPECT_GT(begins, 0) << path;
    }
  }
  std::filesystem::remove_all(out);
}

// A killed shard's restart writes <out>/shard-K.i1.* instead of truncating
// the first incarnation's files. The restart and the unkilled shard close
// valid, balanced Chrome traces; the killed incarnation died in _Exit, so
// its file is whatever reached disk before the kill: the header and the
// events flushed so far, without the closing brackets.
TEST(FleetTrace, RestartedShardKeepsTheKilledIncarnationsTrace) {
  const auto out = std::filesystem::temp_directory_path() /
                   ("a3cs_fleet_restart_trace_" + std::to_string(::getpid()));
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(out);
  const std::string cmd =
      "env A3CS_FLEET_KILL=0@3 A3CS_PROFILE_CHROME=" +
      (out / "fleet.chrome.json").string() + " " + COSEARCH_FLEET_BIN +
      " Catch --workers 2 --frames 64 --backoff 0.05 --out " + out.string() +
      " > " + (out / "log.txt").string() + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  for (const char* name : {"shard-0.i1.chrome.json", "shard-1.chrome.json"}) {
    const std::string check = std::string(A3CS_BENCH_REPORT_BIN) +
                              " --chrome-check " + (out / name).string() +
                              " >> " + (out / "check.txt").string() + " 2>&1";
    const int rc = std::system(check.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 0) << name;
  }
  EXPECT_FALSE(std::filesystem::exists(out / "shard-1.i1.chrome.json"))
      << "shard 1 was never restarted";

  std::ifstream in(out / "shard-0.chrome.json");
  ASSERT_TRUE(in.is_open());
  const std::string killed((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(killed.rfind("{\"otherData\":", 0), 0u);
  EXPECT_NE(killed.find("\"ph\":\"B\""), std::string::npos)
      << "the killed incarnation's events were overwritten";
  std::filesystem::remove_all(out);
}

// --------------------------------------------------------------- config ----

TEST(FleetConfig, EnvOverridesWin) {
  ::setenv("A3CS_FLEET_HB_S", "1.5", 1);
  ::setenv("A3CS_FLEET_RESTARTS", "7", 1);
  ::setenv("A3CS_FLEET_BACKOFF_S", "0.125", 1);
  ::setenv("A3CS_FLEET_REALLOC", "0", 1);
  ::setenv("A3CS_FLEET_POLL_MS", "10", 1);
  FleetConfig cfg;
  const FleetConfig out = cfg.with_env_overrides();
  EXPECT_DOUBLE_EQ(out.heartbeat_timeout_s, 1.5);
  EXPECT_EQ(out.restart_budget, 7);
  EXPECT_DOUBLE_EQ(out.backoff_base_s, 0.125);
  EXPECT_FALSE(out.reallocate_budget);
  EXPECT_EQ(out.poll_interval_ms, 10);
  ::unsetenv("A3CS_FLEET_HB_S");
  ::unsetenv("A3CS_FLEET_RESTARTS");
  ::unsetenv("A3CS_FLEET_BACKOFF_S");
  ::unsetenv("A3CS_FLEET_REALLOC");
  ::unsetenv("A3CS_FLEET_POLL_MS");
}

TEST(FleetConfig, OutcomeNames) {
  EXPECT_STREQ(to_string(ShardOutcome::kDone), "done");
  EXPECT_STREQ(to_string(ShardOutcome::kDropped), "dropped");
  EXPECT_STREQ(to_string(ShardOutcome::kDiverged), "diverged");
}

}  // namespace
}  // namespace a3cs::fleet
