// Checkpoint lifecycle management: cadence policy, the on-disk ring of the
// last N checkpoints, and corruption-tolerant recovery.
//
// Files are named ckpt-<iteration, zero-padded>.a3ck inside a dedicated
// directory; only this manager knows that naming. Writes are atomic (see
// section_file.h), pruning keeps the newest `keep` files, and
// load_newest_valid() walks the ring newest-first, skipping (and counting)
// any checkpoint that fails validation — so a tip torn by a crash or
// truncated by a full disk falls back to the previous intact one instead of
// killing the resume.
//
// The manager owns the one commit in flight: commit_async() runs a commit on
// a util::BackgroundJob, and every other member that touches the ring waits
// for that commit first, so the ring a caller reads or writes always holds
// it. wait() is the same barrier on its own.
//
// Environment knobs (override the programmatic config, mirroring
// A3CS_TRACE_* semantics):
//   A3CS_CKPT_DIR=path        enable checkpointing into this directory
//   A3CS_CKPT_EVERY_ITERS=N   checkpoint every N co-search iterations
//   A3CS_CKPT_EVERY_SECONDS=T additionally checkpoint every T wall seconds
//   A3CS_CKPT_KEEP=N          ring size (how many checkpoints to retain)
//   A3CS_CKPT_RESUME=0|1      resume from the newest valid checkpoint
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "ckpt/section_file.h"
#include "util/thread_pool.h"

namespace a3cs::ckpt {

struct CkptConfig {
  // Empty = checkpointing disabled.
  std::string dir;
  // Write every N iterations (0 disables the iteration cadence).
  int every_iters = 50;
  // Additionally write when T wall-clock seconds elapsed since the last
  // write (0 disables the time cadence).
  double every_seconds = 0.0;
  // Ring size; older checkpoints beyond this are pruned after each write.
  int keep = 3;
  // Restore from the newest valid checkpoint in `dir` before running.
  bool resume = false;

  bool enabled() const { return !dir.empty(); }

  // Returns a copy with A3CS_CKPT_* environment overrides applied (env wins).
  CkptConfig with_env_overrides() const;
};

class CheckpointManager {
 public:
  // Creates the directory if needed and sweeps orphaned "*.a3ck.tmp"
  // staging files left by a writer killed mid-atomic-commit (counted by the
  // ckpt.tmp_swept metric; see docs/CHECKPOINTING.md). `threads` is the
  // run's resolved execution thread count: above 1, commit_async() commits
  // on a thread of its own; at 1 it commits inline.
  explicit CheckpointManager(CkptConfig cfg, int threads = 1);

  const CkptConfig& config() const { return cfg_; }

  // Serializes `writer` to <dir>/ckpt-<iter>.a3ck atomically, then prunes
  // the ring. Returns the number of bytes written.
  std::size_t commit(std::int64_t iter, const SectionWriter& writer);

  struct CommitStats {
    std::size_t bytes = 0;
    double write_ms = 0.0;  // calling thread: the wait plus the snapshot
    double sync_ms = 0.0;   // job: encode, tmp + fsync + rename, prune
  };
  // commit() off the calling thread. Waits for the commit in flight, has
  // `snapshot` fill the writer on the calling thread, then commits it on the
  // job (inline at one thread). `durable` runs on the job once the file is
  // durable and the ring pruned. A failure surfaces at the next
  // barrier as "checkpoint commit of <path> failed: ...".
  void commit_async(std::int64_t iter,
                    const std::function<void(SectionWriter&)>& snapshot,
                    std::function<void(const CommitStats&)> durable);

  // The durability barrier: waits for the commit in flight and rethrows its
  // error, once. The commits above and every member below call it first.
  void wait();

  // Iterations that currently have a checkpoint on disk, ascending.
  std::vector<std::int64_t> list();

  // Loads the newest checkpoint that validates end-to-end. Corrupt or
  // truncated files are skipped (each skip counted in `fallbacks` and in the
  // ckpt.fallbacks metric); with `require_healthy` set, checkpoints whose
  // trailer health tag is cleared (written while the HealthMonitor reported
  // an error) are skipped the same way — the guard's rollback path uses this
  // so a run never restores INTO a diverged state. Returns the checkpoint's
  // iteration and fills *out, or -1 when no acceptable checkpoint exists.
  std::int64_t load_newest_valid(SectionReader* out, int* fallbacks = nullptr,
                                 bool require_healthy = false);

  // Deletes every ring checkpoint strictly newer than `iter` (used after a
  // guard rollback so stale unhealthy tips cannot shadow the healthy state
  // the run restarted from). Returns the number of files removed.
  int remove_newer_than(std::int64_t iter);

  // Halves the newest ring checkpoint (if any), as a torn write or a full
  // disk would leave it: the A3CS_FAULT_TRUNC_CKPT and A3CS_FLEET_CORRUPT_TIP
  // faults. A filesystem error is reported in `ec`.
  void tear_tip(std::error_code& ec);

  std::string path_for(std::int64_t iter) const;

 private:
  std::size_t write_and_prune(std::int64_t iter, const SectionWriter& writer);
  // The ring on disk, ascending, without waiting.
  std::vector<std::int64_t> scan() const;

  CkptConfig cfg_;
  util::BackgroundJob commit_;
};

}  // namespace a3cs::ckpt
