// End-to-end fault-injection tests for the training-health guard: a real
// CoSearchEngine run is corrupted through the FaultInjector (NaN gradients,
// Inf losses, NaN weights, torn checkpoints — no mocks, the actual data
// path), and the guard must walk its escalation ladder and finish the run
// with finite state by rolling back to a healthy-tagged checkpoint. The
// negative control proves the faults are real: the same corruption with the
// guard off leaves the network poisoned. Unit tests for the monitor, the
// policy ladder and the injector live in guard_test.cc.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "ckpt/section_file.h"
#include "core/cosearch.h"
#include "guard/fault.h"
#include "guard/policy.h"
#include "nn/module.h"
#include "obs/jsonl.h"

namespace a3cs {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& tag) {
  const auto dir =
      fs::temp_directory_path() / ("a3cs_guard_test_" + tag + "_" +
                                   std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The same tiny-but-real search the checkpoint tests use: 3 cells, 2 envs,
// rollout 4 => 8 frames per iteration.
core::CoSearchConfig tiny_cosearch_config() {
  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = 3;
  cfg.a2c.num_envs = 2;
  cfg.a2c.rollout_len = 4;
  cfg.a2c.loss = rl::no_distill_coefficients();
  cfg.das.samples_per_iter = 2;
  cfg.tau_decay_every_frames = 64;
  return cfg;
}

// Arms the ladder with one rung each so a persistent fault escalates fast:
// error streak 1 -> skip, 2 -> soften, 3 -> rollback.
guard::GuardConfig short_ladder() {
  guard::GuardConfig g;
  g.mode = guard::GuardMode::kHeal;
  g.skip_budget = 1;
  g.soften_budget = 1;
  g.max_rollbacks = 2;
  g.soften_cooldown_iters = 4;
  return g;
}

// Counts guard_event records in a trace by their "kind" field.
std::map<std::string, int> guard_event_kinds(const std::string& trace_path) {
  std::map<std::string, int> kinds;
  for (const obs::JsonValue& ev : obs::parse_jsonl_file(trace_path)) {
    if (ev.string_or("type", "") == "guard_event") {
      ++kinds[ev.string_or("kind", "?")];
    }
  }
  return kinds;
}

// Tests arm the PROCESS-GLOBAL injector; isolate every test on both sides.
struct InjectorGuard {
  InjectorGuard() { guard::FaultInjector::global().reset(); }
  ~InjectorGuard() { guard::FaultInjector::global().reset(); }
};

// The acceptance scenario: NaN gradient, Inf loss and a NaN WEIGHT injected
// mid-run. The first two are transient (one poisoned batch each) and heal
// with a skip; the NaN weight is persistent, so the ladder must escalate
// skip -> soften -> rollback, restore the newest HEALTHY-tagged checkpoint
// (the tips written during the incident are tagged unhealthy) and finish the
// full frame budget with finite parameters.
TEST(GuardRecovery, HealsInjectedFaultsViaRollback) {
  InjectorGuard isolate;
  auto& faults = guard::FaultInjector::global();
  // one_iteration consults the pre-increment counter: a fault armed at I is
  // flagged by the monitor (and traced) as iteration I+1.
  faults.arm(guard::FaultKind::kNanGrad, 5);   // transient, iteration 6
  faults.arm(guard::FaultKind::kInfLoss, 7);   // transient, iteration 8
  faults.arm(guard::FaultKind::kNanParam, 9);  // persistent, iteration 10+

  auto cfg = tiny_cosearch_config();
  cfg.guard = short_ladder();
  cfg.ckpt.dir = temp_dir("heal");
  cfg.ckpt.every_iters = 2;
  cfg.ckpt.keep = 8;
  cfg.obs.trace_every = 1;
  cfg.obs.trace_path = cfg.ckpt.dir + "/trace.jsonl";

  core::CoSearchEngine engine("Catch", cfg, nullptr);
  engine.run(30 * 8);

  // The run completed its budget and the weights came out clean — the NaN
  // weight from iteration 10 was healed by restoring checkpoint 4 (tips 6,
  // 8, 10 were all written during faulted iterations and tagged unhealthy).
  EXPECT_EQ(engine.iterations(), 30);
  EXPECT_TRUE(nn::param_norm_stats(engine.net().parameters()).finite);

  // Every rung left its trace: one skip per transient fault plus one for the
  // first NaN-weight iteration, then soften, then rollback.
  const auto kinds = guard_event_kinds(cfg.obs.trace_path);
  EXPECT_EQ(kinds.count("verdict"), 1u);
  EXPECT_EQ(kinds.at("skip"), 3) << "iterations 6, 8 and 10";
  EXPECT_EQ(kinds.at("soften"), 1) << "iteration 11";
  EXPECT_EQ(kinds.at("rollback"), 1) << "iteration 12";
  EXPECT_EQ(kinds.at("rollback_done"), 1);
  EXPECT_EQ(kinds.count("abort_dump"), 0u);

  // The ring was rewound with the engine: everything newer than the restore
  // point was dropped, then repopulated by the healthy replay.
  ckpt::CheckpointManager mgr(cfg.ckpt);
  ckpt::SectionReader tip;
  EXPECT_GE(mgr.load_newest_valid(&tip, nullptr, /*require_healthy=*/true),
            0);
  fs::remove_all(cfg.ckpt.dir);
}

// Negative control (guard off): the identical NaN-weight fault poisons the
// unguarded run for good — proof the injection corrupts the real data path
// and that the recovery above is the guard's doing, not luck.
TEST(GuardRecovery, UnguardedRunStaysPoisoned) {
  InjectorGuard isolate;
  guard::FaultInjector::global().arm(guard::FaultKind::kNanParam, 7);

  auto cfg = tiny_cosearch_config();
  cfg.guard.mode = guard::GuardMode::kOff;

  core::CoSearchEngine engine("Catch", cfg, nullptr);
  engine.run(16 * 8);

  EXPECT_EQ(engine.iterations(), 16);
  EXPECT_FALSE(nn::param_norm_stats(engine.net().parameters()).finite)
      << "the injected NaN weight should survive an unguarded run";
}

// A rollback that lands on a TORN checkpoint tip must fall back further: the
// newest tip is unhealthy-tagged, the next one is truncated mid-file (CRC
// fails), and only the third is both valid and healthy.
TEST(GuardRecovery, RollbackFallsBackPastTruncatedTip) {
  InjectorGuard isolate;
  auto& faults = guard::FaultInjector::global();
  faults.arm(guard::FaultKind::kTruncCkpt, 7);  // tears the iteration-8 tip
  faults.arm(guard::FaultKind::kNanParam, 9);   // persistent from iter 10

  auto cfg = tiny_cosearch_config();
  cfg.guard = short_ladder();
  cfg.ckpt.dir = temp_dir("torn");
  cfg.ckpt.every_iters = 2;
  cfg.ckpt.keep = 8;
  cfg.obs.trace_every = 1;
  cfg.obs.trace_path = cfg.ckpt.dir + "/trace.jsonl";

  core::CoSearchEngine engine("Catch", cfg, nullptr);
  engine.run(20 * 8);

  EXPECT_EQ(engine.iterations(), 20);
  EXPECT_TRUE(nn::param_norm_stats(engine.net().parameters()).finite);

  // The rollback_done record names the restore point: iteration 6, past the
  // unhealthy tip at 10 AND the torn tip at 8.
  std::int64_t restored_at = -1;
  for (const obs::JsonValue& ev :
       obs::parse_jsonl_file(cfg.obs.trace_path)) {
    if (ev.string_or("type", "") == "guard_event" &&
        ev.string_or("kind", "") == "rollback_done") {
      restored_at = static_cast<std::int64_t>(ev.number_or("iter", -1.0));
    }
  }
  EXPECT_EQ(restored_at, 6);
  fs::remove_all(cfg.ckpt.dir);
}

// At two threads a checkpoint commits on a thread of its own while the next
// iteration runs. With every budget but one rollback at zero, the first
// error rolls back on that very next iteration: the ring read must wait for
// the in-flight commit and restore it, not the tip before it.
TEST(GuardRecovery, RollbackRightAfterAnAsyncCommitRestoresThatCommit) {
  InjectorGuard isolate;
  guard::FaultInjector::global().arm(guard::FaultKind::kNanParam, 6);

  auto cfg = tiny_cosearch_config();
  cfg.exec.threads = 2;
  cfg.guard.mode = guard::GuardMode::kHeal;
  cfg.guard.skip_budget = 0;
  cfg.guard.soften_budget = 0;
  cfg.guard.max_rollbacks = 1;
  cfg.ckpt.dir = temp_dir("async");
  cfg.ckpt.every_iters = 1;
  cfg.ckpt.keep = 8;
  cfg.obs.trace_path = cfg.ckpt.dir + "/trace.jsonl";

  core::CoSearchEngine engine("Catch", cfg, nullptr);
  engine.run(12 * 8);
  EXPECT_EQ(engine.iterations(), 12);
  EXPECT_TRUE(nn::param_norm_stats(engine.net().parameters()).finite);

  std::int64_t from = -1, restored_at = -1;
  for (const obs::JsonValue& ev :
       obs::parse_jsonl_file(cfg.obs.trace_path)) {
    if (ev.string_or("type", "") == "guard_event" &&
        ev.string_or("kind", "") == "rollback_done") {
      from = static_cast<std::int64_t>(ev.number_or("from_iter", -1.0));
      restored_at = static_cast<std::int64_t>(ev.number_or("iter", -1.0));
    }
  }
  EXPECT_EQ(from, 7);
  EXPECT_EQ(restored_at, 6) << "the commit submitted one iteration earlier";
  fs::remove_all(cfg.ckpt.dir);
}

// With every budget at zero the first unhealable error tops out the ladder:
// the engine throws GuardAbort and leaves an unhealthy-tagged diagnostic
// dump for post-mortem restore.
TEST(GuardRecovery, ExhaustedBudgetsAbortWithDiagnosticDump) {
  InjectorGuard isolate;
  guard::FaultInjector::global().arm(guard::FaultKind::kNanParam, 3);

  auto cfg = tiny_cosearch_config();
  cfg.guard.mode = guard::GuardMode::kHeal;
  cfg.guard.skip_budget = 0;
  cfg.guard.soften_budget = 0;
  cfg.guard.max_rollbacks = 0;
  cfg.ckpt.dir = temp_dir("abort");
  cfg.ckpt.every_iters = 2;

  core::CoSearchEngine engine("Catch", cfg, nullptr);
  EXPECT_THROW(engine.run(16 * 8), guard::GuardAbort);

  const std::string dump = cfg.ckpt.dir + "/abort-dump.a3ck";
  ASSERT_TRUE(fs::exists(dump));
  const auto reader = ckpt::SectionReader::from_file(dump);
  EXPECT_FALSE(reader.healthy())
      << "the abort dump must never win a healthy-checkpoint scan";
  fs::remove_all(cfg.ckpt.dir);
}

}  // namespace
}  // namespace a3cs
