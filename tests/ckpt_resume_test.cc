// Kill-and-resume fault injection (the checkpoint subsystem's correctness
// bar): a co-search run that is hard-killed mid-iteration and resumed in a
// FRESH process must produce exactly the same final theta/alpha/phi state —
// and the same per-iteration trace — as an uninterrupted run, at any thread
// count. Also covers recovery when the newest checkpoint is truncated (torn
// write) and the SIGTERM -> final checkpoint -> clean exit path.
//
// The child binary is tests/ckpt_run_main.cc; its path arrives via the
// CKPT_RUN_BIN compile definition.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.h"

namespace a3cs {
namespace {

namespace fs = std::filesystem;

constexpr long long kTotalIters = 24;
constexpr long long kDieAt = 12;

std::string temp_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("a3cs_resume_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Runs the helper with the given env assignments; returns its exit code.
int run_helper(const std::string& env, long long total_iters,
               const std::string& ckpt_dir, const std::string& out_file,
               bool resume, long long die_at, long long sigterm_at) {
  std::ostringstream cmd;
  cmd << "env " << env << " " << CKPT_RUN_BIN << " " << total_iters << " "
      << ckpt_dir << " " << out_file << " " << (resume ? 1 : 0) << " "
      << die_at << " " << sigterm_at << " >/dev/null 2>&1";
  const int status = std::system(cmd.str().c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

// The per-iteration trace events with the wall-clock field stripped, keyed
// by iteration.
std::vector<std::pair<long long, std::string>> iter_events(
    const std::string& trace_path) {
  std::vector<std::pair<long long, std::string>> out;
  std::ifstream in(trace_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"cosearch_iter\"") == std::string::npos) continue;
    const std::size_t type_at = line.find("\"type\"");
    std::string stripped = "{";
    stripped.append(line, type_at, std::string::npos);
    const std::size_t iter_at = line.find("\"iter\":");
    long long iter = -1;
    if (iter_at != std::string::npos) {
      iter = std::atoll(line.c_str() + iter_at + 7);
    }
    out.emplace_back(iter, stripped);
  }
  return out;
}

void expect_resume_bit_exact(const std::string& threads_env) {
  const std::string ref_dir = temp_dir("ref_" + threads_env);
  const std::string crash_dir = temp_dir("crash_" + threads_env);
  const std::string ref_out = ref_dir + "/final.bin";
  const std::string crash_out = crash_dir + "/final.bin";
  const std::string ref_trace = ref_dir + "/trace.jsonl";
  const std::string resume_trace = crash_dir + "/trace.jsonl";
  const std::string env = "A3CS_THREADS=" + threads_env;

  // Uninterrupted reference (checkpointing on: writes must not perturb).
  ASSERT_EQ(run_helper(env + " A3CS_TRACE_PATH=" + ref_trace, kTotalIters,
                       ref_dir + "/ckpts", ref_out, false, 0, 0),
            0);
  // Crash mid-run: the helper _Exit(17)s inside the iteration-kDieAt
  // callback, after that iteration's checkpoint was handed to the writer. At
  // one thread it is on disk; at more it may still be in flight, and the
  // kill loses it, so the resume starts from the checkpoint before it.
  ASSERT_EQ(run_helper(env, kTotalIters, crash_dir + "/ckpts", "-", false,
                       kDieAt, 0),
            17);
  // Resume in a fresh process and finish the budget.
  ASSERT_EQ(run_helper(env + " A3CS_TRACE_PATH=" + resume_trace, kTotalIters,
                       crash_dir + "/ckpts", crash_out, true, 0, 0),
            0);

  // Final state must be bit-identical to the uninterrupted run.
  const std::string ref_bytes = util::read_file_bytes(ref_out);
  const std::string res_bytes = util::read_file_bytes(crash_out);
  ASSERT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, res_bytes)
      << "crash+resume diverged from the uninterrupted run";

  // The resumed process's per-iteration events (losses, rewards, alpha
  // entropies, hw stats) must textually match the reference's for the same
  // iterations — %.12g float formatting makes this a bit-exactness check.
  const auto ref_events = iter_events(ref_trace);
  const auto res_events = iter_events(resume_trace);
  ASSERT_FALSE(res_events.empty());
  int compared = 0;
  for (const auto& [iter, line] : res_events) {
    for (const auto& [riter, rline] : ref_events) {
      if (riter != iter) continue;
      EXPECT_EQ(line, rline) << "trace diverged at iteration " << iter;
      ++compared;
    }
  }
  EXPECT_GE(compared, static_cast<int>(kTotalIters - kDieAt));

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST(CkptResume, KillAndResumeBitExactSingleThread) {
  expect_resume_bit_exact("1");
}

TEST(CkptResume, KillAndResumeBitExactFourThreads) {
  expect_resume_bit_exact("4");
}

TEST(CkptResume, TruncatedTipFallsBackToPreviousCheckpoint) {
  const std::string ref_dir = temp_dir("trunc_ref");
  const std::string crash_dir = temp_dir("trunc_crash");
  const std::string ref_out = ref_dir + "/final.bin";
  const std::string crash_out = crash_dir + "/final.bin";
  const std::string env = "A3CS_THREADS=1";

  ASSERT_EQ(run_helper(env, kTotalIters, ref_dir + "/ckpts", ref_out, false,
                       0, 0),
            0);
  ASSERT_EQ(run_helper(env, kTotalIters, crash_dir + "/ckpts", "-", false,
                       kDieAt, 0),
            17);

  // Tear the newest checkpoint in half, as an interrupted write would.
  std::string tip;
  for (const auto& e : fs::directory_iterator(crash_dir + "/ckpts")) {
    const std::string p = e.path().string();
    if (tip.empty() || p > tip) tip = p;
  }
  ASSERT_FALSE(tip.empty());
  const std::string bytes = util::read_file_bytes(tip);
  std::ofstream(tip, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);

  // Resume must fall back to the previous intact checkpoint, redo the lost
  // iteration deterministically, and still land bit-identical.
  ASSERT_EQ(run_helper(env, kTotalIters, crash_dir + "/ckpts", crash_out,
                       true, 0, 0),
            0);
  EXPECT_EQ(util::read_file_bytes(ref_out), util::read_file_bytes(crash_out))
      << "fallback resume diverged from the uninterrupted run";

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST(CkptResume, SigtermCheckpointsThenResumesBitExact) {
  const std::string ref_dir = temp_dir("term_ref");
  const std::string stop_dir = temp_dir("term_stop");
  const std::string ref_out = ref_dir + "/final.bin";
  const std::string stop_out = stop_dir + "/final.bin";
  const std::string env = "A3CS_THREADS=1";

  ASSERT_EQ(run_helper(env, kTotalIters, ref_dir + "/ckpts", ref_out, false,
                       0, 0),
            0);
  // SIGTERM mid-run: the engine writes a final checkpoint and returns
  // cleanly (exit 0), well short of the frame budget.
  ASSERT_EQ(run_helper(env, kTotalIters, stop_dir + "/ckpts", "-", false, 0,
                       kDieAt),
            0);
  ASSERT_FALSE(fs::is_empty(stop_dir + "/ckpts"));
  ASSERT_EQ(run_helper(env, kTotalIters, stop_dir + "/ckpts", stop_out, true,
                       0, 0),
            0);
  EXPECT_EQ(util::read_file_bytes(ref_out), util::read_file_bytes(stop_out))
      << "signal-stop + resume diverged from the uninterrupted run";

  fs::remove_all(ref_dir);
  fs::remove_all(stop_dir);
}

}  // namespace
}  // namespace a3cs
