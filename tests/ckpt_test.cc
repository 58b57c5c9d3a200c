// Unit tests for the crash-safe checkpoint subsystem (src/ckpt) and the
// per-layer state serialization that feeds it: CRC32, atomic file
// replacement, the sectioned container, the retention ring with corrupt-tip
// fallback, RNG/optimizer/env state round-trips, and full-engine
// save/restore bit-exactness. The cross-process kill-and-resume fault
// injection lives in ckpt_resume_test.cc.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "accel/config_io.h"
#include "arcade/games.h"
#include "arcade/vec_env.h"
#include "arcade/wrappers.h"
#include "ckpt/manager.h"
#include "ckpt/section_file.h"
#include "ckpt/signal.h"
#include "core/cosearch.h"
#include "das/das.h"
#include "guard/fault.h"
#include "nn/optim.h"
#include "nn/zoo.h"
#include "rl/a2c.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/state_io.h"

namespace a3cs {
namespace {

namespace fs = std::filesystem;
namespace sio = util::sio;

std::string temp_dir(const std::string& tag) {
  const auto dir =
      fs::temp_directory_path() / ("a3cs_ckpt_test_" + tag + "_" +
                                   std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownVectors) {
  // The standard CRC-32/IEEE check value.
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0x00000000u);
  EXPECT_EQ(util::crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = 0;
  for (char c : data) crc = util::crc32_update(crc, &c, 1);
  EXPECT_EQ(crc, util::crc32(data.data(), data.size()));
}

// The bytewise table loop crc32_update used before slicing-by-8, the
// reference the sliced loop must reproduce exactly.
std::uint32_t crc32_bytewise(std::uint32_t crc, const unsigned char* p,
                             std::size_t len) {
  crc ^= 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    std::uint32_t c = (crc ^ p[i]) & 0xFFu;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc = c ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryAlignmentAndLength) {
  util::Rng rng(17);
  std::vector<unsigned char> buf(70000 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_int(256));
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 9; ++len) lengths.push_back(len);
  for (const std::size_t len : {15, 16, 17, 63, 64, 65, 4097, 70000}) {
    lengths.push_back(len);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t len : lengths) {
      const unsigned char* p = buf.data() + offset;
      EXPECT_EQ(util::crc32(p, len), crc32_bytewise(0, p, len))
          << "offset " << offset << " len " << len;
    }
  }
  // Chained updates over chunk sizes that leave every remainder mod 8.
  for (const std::size_t chunk : {1, 3, 7, 8, 9, 13, 64, 1000}) {
    const std::size_t total = 10007;
    std::uint32_t crc = 0;
    for (std::size_t at = 0; at < total; at += chunk) {
      crc = util::crc32_update(crc, buf.data() + 3 + at,
                               std::min(chunk, total - at));
    }
    EXPECT_EQ(crc, crc32_bytewise(0, buf.data() + 3, total))
        << "chunk " << chunk;
  }
}

// ---------------------------------------------------------- atomic file

TEST(AtomicFile, WriteThenReadRoundTrips) {
  const std::string dir = temp_dir("atomic");
  const std::string path = dir + "/blob.bin";
  const std::string bytes("hello\0world", 11);
  util::atomic_write_file(path, bytes);
  EXPECT_EQ(util::read_file_bytes(path), bytes);
  // Overwrite replaces the full content, never appends.
  util::atomic_write_file(path, "x");
  EXPECT_EQ(util::read_file_bytes(path), "x");
  fs::remove_all(dir);
}

TEST(AtomicFile, NoTempFileLeftBehind) {
  const std::string dir = temp_dir("atomic2");
  util::atomic_write_file(dir + "/a.bin", "data");
  int entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++entries;
  EXPECT_EQ(entries, 1);
  fs::remove_all(dir);
}

// ------------------------------------------------------------- state_io

TEST(StateIo, ScalarsAndVectorsRoundTrip) {
  std::ostringstream out;
  sio::put_u8(out, 0xAB);
  sio::put_u32(out, 0xDEADBEEFu);
  sio::put_u64(out, 0x0123456789ABCDEFull);
  sio::put_i32(out, -42);
  sio::put_i64(out, -1234567890123LL);
  sio::put_f32(out, 1.5f);
  sio::put_f64(out, -2.25);
  sio::put_bool(out, true);
  sio::put_string(out, "sect\0ion" + std::string(1, '\0'));
  sio::put_i32_vec(out, {1, -2, 3});
  sio::put_f64_vec(out, {0.5, -0.25});
  sio::put_bool_vec(out, {true, false, true, true});

  std::istringstream in(out.str());
  EXPECT_EQ(sio::get_u8(in), 0xAB);
  EXPECT_EQ(sio::get_u32(in), 0xDEADBEEFu);
  EXPECT_EQ(sio::get_u64(in), 0x0123456789ABCDEFull);
  EXPECT_EQ(sio::get_i32(in), -42);
  EXPECT_EQ(sio::get_i64(in), -1234567890123LL);
  EXPECT_EQ(sio::get_f32(in), 1.5f);
  EXPECT_EQ(sio::get_f64(in), -2.25);
  EXPECT_EQ(sio::get_bool(in), true);
  EXPECT_EQ(sio::get_string(in), "sect\0ion" + std::string(1, '\0'));
  EXPECT_EQ(sio::get_i32_vec(in), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(sio::get_f64_vec(in), (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(sio::get_bool_vec(in),
            (std::vector<bool>{true, false, true, true}));
}

TEST(StateIo, TruncationThrows) {
  std::ostringstream out;
  sio::put_u64(out, 7);
  std::string bytes = out.str();
  bytes.resize(bytes.size() - 1);
  std::istringstream in(bytes);
  EXPECT_THROW(sio::get_u64(in), std::runtime_error);
}

TEST(StateIo, RngStateRoundTripsMidStream) {
  util::Rng a(1234);
  for (int i = 0; i < 37; ++i) a.uniform();
  a.normal();  // leaves a cached Box-Muller value in flight
  std::ostringstream out;
  sio::put_rng(out, a);
  util::Rng b(999);
  std::istringstream in(out.str());
  sio::get_rng(in, b);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.normal(), b.normal());
  }
}

// --------------------------------------------------------- section file

TEST(SectionFile, RoundTripsMultipleSections) {
  ckpt::SectionWriter w;
  std::ostream& s1 = w.begin_section("alpha");
  sio::put_i32(s1, 7);
  w.end_section();
  w.add_section("beta", std::string("\x00\x01\x02", 3));
  const std::string bytes = w.encode();

  ckpt::SectionReader r(bytes);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));
  auto in = r.stream("alpha");
  EXPECT_EQ(sio::get_i32(in), 7);
  EXPECT_EQ(r.payload("beta"), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(r.section_names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_THROW(r.stream("gamma"), ckpt::CkptError);
}

TEST(SectionFile, DuplicateSectionNameThrows) {
  ckpt::SectionWriter w;
  w.add_section("dup", "x");
  EXPECT_THROW(w.add_section("dup", "y"), std::runtime_error);
}

TEST(SectionFile, RejectsBadMagicAndVersion) {
  ckpt::SectionWriter w;
  w.add_section("s", "payload");
  std::string bytes = w.encode();
  {
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(ckpt::SectionReader{bad}, ckpt::CkptError);
  }
  {
    // Bumping the version byte invalidates the trailer CRC too, so corrupt
    // the version and recompute nothing: the reader must fail either way.
    std::string bad = bytes;
    bad[4] = static_cast<char>(ckpt::kCkptFormatVersion + 1);
    EXPECT_THROW(ckpt::SectionReader{bad}, ckpt::CkptError);
  }
}

TEST(SectionFile, DetectsPayloadCorruptionAndTruncation) {
  ckpt::SectionWriter w;
  w.add_section("state", std::string(256, 'q'));
  const std::string bytes = w.encode();
  {
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x40;  // flip a payload bit
    EXPECT_THROW(ckpt::SectionReader{bad}, ckpt::CkptError);
  }
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    EXPECT_THROW(ckpt::SectionReader{bytes.substr(0, cut)}, ckpt::CkptError)
        << "cut at " << cut;
  }
  // Trailing garbage after the trailer must also be rejected.
  EXPECT_THROW(ckpt::SectionReader{bytes + "zz"}, ckpt::CkptError);
}

TEST(SectionFile, HealthTagRoundTrips) {
  ckpt::SectionWriter w;
  w.add_section("s", "payload");
  EXPECT_TRUE(w.healthy());
  {
    ckpt::SectionReader r(w.encode());
    EXPECT_TRUE(r.healthy());
    EXPECT_EQ(r.format_version(), ckpt::kCkptFormatVersion);
  }
  w.set_healthy(false);
  {
    ckpt::SectionReader r(w.encode());
    EXPECT_FALSE(r.healthy());
  }
  // Clearing the tag must not affect structural validity.
  w.set_healthy(true);
  EXPECT_TRUE(ckpt::SectionReader(w.encode()).healthy());
}

// -------------------------------------------------------------- manager

ckpt::SectionWriter tiny_writer(int marker) {
  ckpt::SectionWriter w;
  std::ostream& s = w.begin_section("m");
  sio::put_i32(s, marker);
  w.end_section();
  return w;
}

TEST(CheckpointManager, RingPrunesOldest) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("ring");
  cfg.keep = 3;
  ckpt::CheckpointManager mgr(cfg);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_GT(mgr.commit(i * 10, tiny_writer(i)), 0u);
  }
  EXPECT_EQ(mgr.list(), (std::vector<std::int64_t>{30, 40, 50}));
  fs::remove_all(cfg.dir);
}

TEST(CheckpointManager, LoadNewestValidFallsBackPastTruncatedTip) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("fallback");
  cfg.keep = 4;
  ckpt::CheckpointManager mgr(cfg);
  mgr.commit(1, tiny_writer(1));
  mgr.commit(2, tiny_writer(2));
  mgr.commit(3, tiny_writer(3));
  // Truncate the tip as a torn write / full disk would.
  const std::string tip = mgr.path_for(3);
  const std::string bytes = util::read_file_bytes(tip);
  std::ofstream(tip, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);

  ckpt::SectionReader reader;
  int fallbacks = -1;
  EXPECT_EQ(mgr.load_newest_valid(&reader, &fallbacks), 2);
  EXPECT_EQ(fallbacks, 1);
  auto in = reader.stream("m");
  EXPECT_EQ(sio::get_i32(in), 2);
  fs::remove_all(cfg.dir);
}

ckpt::SectionWriter tagged_writer(int marker, bool healthy) {
  ckpt::SectionWriter w = tiny_writer(marker);
  w.set_healthy(healthy);
  return w;
}

TEST(CheckpointManager, RequireHealthySkipsUnhealthyTips) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("healthy");
  cfg.keep = 4;
  ckpt::CheckpointManager mgr(cfg);
  mgr.commit(1, tagged_writer(1, true));
  mgr.commit(2, tagged_writer(2, false));
  mgr.commit(3, tagged_writer(3, false));

  // The plain crash-resume scan restores the newest tip regardless...
  ckpt::SectionReader reader;
  EXPECT_EQ(mgr.load_newest_valid(&reader), 3);
  EXPECT_FALSE(reader.healthy());
  // ...but the guard's rollback path must fall back past BOTH unhealthy
  // tips to the older healthy checkpoint.
  int fallbacks = -1;
  EXPECT_EQ(mgr.load_newest_valid(&reader, &fallbacks,
                                  /*require_healthy=*/true),
            1);
  EXPECT_EQ(fallbacks, 2);
  EXPECT_TRUE(reader.healthy());
  auto in = reader.stream("m");
  EXPECT_EQ(sio::get_i32(in), 1);
  fs::remove_all(cfg.dir);
}

TEST(CheckpointManager, RequireHealthyWithNoHealthyCheckpointReturnsMinusOne) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("all_unhealthy");
  ckpt::CheckpointManager mgr(cfg);
  mgr.commit(1, tagged_writer(1, false));
  mgr.commit(2, tagged_writer(2, false));
  ckpt::SectionReader reader;
  EXPECT_EQ(mgr.load_newest_valid(&reader, nullptr, /*require_healthy=*/true),
            -1);
  EXPECT_EQ(mgr.load_newest_valid(&reader), 2);  // plain scan still works
  fs::remove_all(cfg.dir);
}

TEST(CheckpointManager, RemoveNewerThanDropsStaleTips) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("remove_newer");
  cfg.keep = 5;
  ckpt::CheckpointManager mgr(cfg);
  mgr.commit(1, tiny_writer(1));
  mgr.commit(2, tiny_writer(2));
  mgr.commit(3, tiny_writer(3));
  EXPECT_EQ(mgr.remove_newer_than(1), 2);
  EXPECT_EQ(mgr.list(), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(mgr.remove_newer_than(5), 0);
  fs::remove_all(cfg.dir);
}

TEST(CheckpointManager, NoValidCheckpointReturnsMinusOne) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("empty");
  ckpt::CheckpointManager mgr(cfg);
  ckpt::SectionReader reader;
  EXPECT_EQ(mgr.load_newest_valid(&reader), -1);
  fs::remove_all(cfg.dir);
}

TEST(CheckpointManager, EnvOverridesWin) {
  ::setenv("A3CS_CKPT_DIR", "/tmp/env_dir", 1);
  ::setenv("A3CS_CKPT_EVERY_ITERS", "7", 1);
  ::setenv("A3CS_CKPT_KEEP", "9", 1);
  ::setenv("A3CS_CKPT_RESUME", "1", 1);
  ckpt::CkptConfig cfg;
  cfg.dir = "/ignored";
  const ckpt::CkptConfig out = cfg.with_env_overrides();
  EXPECT_EQ(out.dir, "/tmp/env_dir");
  EXPECT_EQ(out.every_iters, 7);
  EXPECT_EQ(out.keep, 9);
  EXPECT_TRUE(out.resume);
  ::unsetenv("A3CS_CKPT_DIR");
  ::unsetenv("A3CS_CKPT_EVERY_ITERS");
  ::unsetenv("A3CS_CKPT_KEEP");
  ::unsetenv("A3CS_CKPT_RESUME");
}

// Regression for the startup sweep: a process killed inside
// util::atomic_write_file leaves "<ckpt>.a3ck.tmp" behind; the next
// CheckpointManager over the same directory must delete it (it was never
// published by rename, so it can never be a valid checkpoint) while leaving
// real checkpoints and unrelated files alone.
TEST(CheckpointManager, StartupSweepsOrphanedTmpFiles) {
  ckpt::CkptConfig cfg;
  cfg.dir = temp_dir("tmpsweep");
  {
    ckpt::CheckpointManager mgr(cfg);
    mgr.commit(5, tiny_writer(5));
  }
  // Inject a torn staging file exactly as a mid-write kill would leave it.
  const std::string orphan = cfg.dir + "/ckpt-000000005.a3ck.tmp";
  std::ofstream(orphan, std::ios::binary) << "torn half-written bytes";
  // Files that do not end in ".a3ck.tmp" must survive the sweep.
  const std::string bystander = cfg.dir + "/notes.tmp";
  std::ofstream(bystander) << "keep me";

  ckpt::CheckpointManager mgr(cfg);  // re-open: the sweep runs here
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(bystander));
  EXPECT_EQ(mgr.list(), (std::vector<std::int64_t>{5}));  // ckpt untouched

  ckpt::SectionReader reader;
  EXPECT_EQ(mgr.load_newest_valid(&reader), 5);
  fs::remove_all(cfg.dir);
}

// ---------------------------------------------------------- stop signal

TEST(StopSignal, RequestStopSetsAndClears) {
  ckpt::StopSignalGuard guard;
  ckpt::clear_stop();
  EXPECT_FALSE(ckpt::stop_requested());
  ckpt::request_stop();
  EXPECT_TRUE(ckpt::stop_requested());
  ckpt::clear_stop();
  EXPECT_FALSE(ckpt::stop_requested());
}

// -------------------------------------------- env / vec-env state

// Every game variant must continue a mid-episode trajectory bit-exactly
// after save/load into a freshly constructed env.
TEST(EnvState, AllGamesResumeBitExactMidEpisode) {
  for (const std::string& title : arcade::all_game_titles()) {
    auto original = arcade::make_game(title, 77);
    original->reset();
    // Advance into the episode (auto-reset on done, like training does).
    util::Rng actions(5);
    bool done = false;
    for (int i = 0; i < 53; ++i) {
      if (done) original->reset();
      const auto r = original->step(actions.uniform_int(original->num_actions()));
      done = r.done;
    }

    std::ostringstream out;
    original->save_state(out);
    auto restored = arcade::make_game(title, 1);  // different seed on purpose
    std::istringstream in(out.str());
    restored->load_state(in);

    util::Rng follow_a(9), follow_b(9);
    bool done_a = done, done_b = done;
    for (int i = 0; i < 200; ++i) {
      if (done_a) original->reset();
      if (done_b) restored->reset();
      const int act = follow_a.uniform_int(original->num_actions());
      (void)follow_b;
      const auto ra = original->step(act);
      const auto rb = restored->step(act);
      ASSERT_EQ(ra.reward, rb.reward) << title << " step " << i;
      ASSERT_EQ(ra.done, rb.done) << title << " step " << i;
      for (std::int64_t k = 0; k < ra.obs.numel(); ++k) {
        ASSERT_EQ(ra.obs[k], rb.obs[k]) << title << " step " << i;
      }
      done_a = ra.done;
      done_b = rb.done;
    }
  }
}

TEST(EnvState, FrameStackRoundTrips) {
  auto a = arcade::make_stacked_game("Pong", 3, 4);
  a->reset();
  for (int i = 0; i < 10; ++i) a->step(i % a->num_actions());
  std::ostringstream out;
  a->save_state(out);
  auto b = arcade::make_stacked_game("Pong", 8, 4);
  std::istringstream in(out.str());
  b->load_state(in);
  for (int i = 0; i < 50; ++i) {
    const auto ra = a->step(i % a->num_actions());
    const auto rb = b->step(i % b->num_actions());
    ASSERT_EQ(ra.reward, rb.reward);
    for (std::int64_t k = 0; k < ra.obs.numel(); ++k) {
      ASSERT_EQ(ra.obs[k], rb.obs[k]);
    }
  }
}

TEST(EnvState, VecEnvRoundTripsScoresAndReturns) {
  arcade::VecEnv a("Catch", 3, 11);
  a.reset();
  util::Rng r(2);
  for (int i = 0; i < 40; ++i) {
    a.step({r.uniform_int(a.num_actions()), r.uniform_int(a.num_actions()),
            r.uniform_int(a.num_actions())});
  }
  std::ostringstream out;
  a.save_state(out);

  arcade::VecEnv b("Catch", 3, 999);
  b.reset();
  std::istringstream in(out.str());
  b.load_state(in);
  EXPECT_EQ(a.episodes_completed(), b.episodes_completed());
  util::Rng ra(4), rb(4);
  for (int i = 0; i < 60; ++i) {
    std::vector<int> acts{ra.uniform_int(a.num_actions()),
                          ra.uniform_int(a.num_actions()),
                          ra.uniform_int(a.num_actions())};
    (void)rb;
    const auto& sa = a.step(acts);
    const auto& sb = b.step(acts);
    ASSERT_EQ(sa.rewards, sb.rewards) << "step " << i;
    ASSERT_EQ(sa.dones, sb.dones) << "step " << i;
  }
  EXPECT_EQ(a.drain_episode_scores(), b.drain_episode_scores());
  EXPECT_EQ(a.episodes_completed(), b.episodes_completed());
}

TEST(EnvState, VecEnvCountMismatchThrows) {
  arcade::VecEnv a("Catch", 2, 1);
  a.reset();
  std::ostringstream out;
  a.save_state(out);
  arcade::VecEnv b("Catch", 3, 1);
  b.reset();
  std::istringstream in(out.str());
  EXPECT_THROW(b.load_state(in), std::runtime_error);
}

// -------------------------------------------------------- das round-trip

TEST(DasState, EngineResumesBitExact) {
  accel::AcceleratorSpace space(2, 5);
  accel::Predictor predictor;
  das::DasConfig cfg;
  cfg.samples_per_iter = 2;
  das::DasEngine a(space, predictor, cfg);
  const auto specs =
      nn::zoo_model_specs("Vanilla", arcade::standard_obs_spec(), 4);
  a.step(specs, 15);

  std::ostringstream out;
  a.save_state(out);
  das::DasEngine b(space, predictor, cfg);
  std::istringstream in(out.str());
  b.load_state(in);

  EXPECT_EQ(a.temperature(), b.temperature());
  EXPECT_EQ(a.has_incumbent(), b.has_incumbent());
  EXPECT_EQ(a.incumbent_cost(), b.incumbent_cost());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.step(specs, 1), b.step(specs, 1)) << "step " << i;
  }
  EXPECT_EQ(accel::encode_config(a.derive()),
            accel::encode_config(b.derive()));
}

// ------------------------------------------- full-engine save / restore

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

TEST(CoSearchCheckpoint, InProcessSaveRestoreContinuesBitExact) {
  const auto cfg = tiny_cosearch_config();
  // Reference: run 24 then 24 more iterations worth of frames in one engine.
  core::CoSearchEngine ref("Catch", cfg, nullptr);
  ref.run(24 * 8);  // 24 iterations of 2 envs x 4 steps
  ckpt::SectionWriter snap_ref;
  // Snapshot mid-run, keep running the same engine.
  ref.save_checkpoint(snap_ref);
  ref.run(24 * 8 + 24 * 8);

  // Restored: a FRESH engine restored from the snapshot, run the back half.
  core::CoSearchEngine res("Catch", cfg, nullptr);
  ckpt::SectionReader reader(snap_ref.encode());
  res.restore_checkpoint(reader);
  res.run(24 * 8 + 24 * 8);

  // theta, alpha and phi must be bit-identical.
  std::ostringstream sa, sb;
  ref.net().save_params(sa);
  res.net().save_params(sb);
  EXPECT_EQ(sa.str(), sb.str()) << "theta diverged after restore";
  auto aa = ref.supernet().alpha_params();
  auto ab = res.supernet().alpha_params();
  ASSERT_EQ(aa.size(), ab.size());
  for (std::size_t i = 0; i < aa.size(); ++i) {
    for (std::int64_t k = 0; k < aa[i]->value.numel(); ++k) {
      ASSERT_EQ(aa[i]->value[k], ab[i]->value[k]) << "alpha " << i;
    }
  }
  std::ostringstream da, db;
  ref.das_engine().save_state(da);
  res.das_engine().save_state(db);
  EXPECT_EQ(da.str(), db.str()) << "phi/DAS state diverged after restore";
  EXPECT_EQ(ref.supernet().temperature(), res.supernet().temperature());
  EXPECT_EQ(ref.iterations(), res.iterations());
}

TEST(CoSearchCheckpoint, RestoreRejectsMismatchedConfig) {
  const auto cfg = tiny_cosearch_config();
  core::CoSearchEngine a("Catch", cfg, nullptr);
  a.run(8 * 4);
  ckpt::SectionWriter snap;
  a.save_checkpoint(snap);
  const std::string bytes = snap.encode();

  {
    // Different game.
    core::CoSearchEngine b("Pong", cfg, nullptr);
    ckpt::SectionReader r(bytes);
    EXPECT_THROW(b.restore_checkpoint(r), std::runtime_error);
  }
  {
    // Different env count.
    auto cfg2 = cfg;
    cfg2.a2c.num_envs = 4;
    core::CoSearchEngine b("Catch", cfg2, nullptr);
    ckpt::SectionReader r(bytes);
    EXPECT_THROW(b.restore_checkpoint(r), std::runtime_error);
  }
  {
    // Different seed.
    auto cfg2 = cfg;
    cfg2.seed = cfg.seed + 1;
    core::CoSearchEngine b("Catch", cfg2, nullptr);
    ckpt::SectionReader r(bytes);
    EXPECT_THROW(b.restore_checkpoint(r), std::runtime_error);
  }
}

TEST(CoSearchCheckpoint, SignalTriggersFinalCheckpointAndCleanExit) {
  auto cfg = tiny_cosearch_config();
  cfg.ckpt.dir = temp_dir("signal");
  cfg.ckpt.every_iters = 0;  // only the signal path writes
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  ckpt::clear_stop();
  int calls = 0;
  engine.run(
      1000 * 8,
      [&](std::int64_t) {
        if (++calls == 3) ckpt::request_stop();
      },
      8);
  // Stopped long before the frame budget, with exactly one checkpoint.
  EXPECT_LT(engine.iterations(), 1000);
  ckpt::CheckpointManager mgr(cfg.ckpt);
  EXPECT_EQ(mgr.list().size(), 1u);
  EXPECT_EQ(mgr.list().front(), engine.iterations());
  ckpt::clear_stop();
  fs::remove_all(cfg.ckpt.dir);
}

// At two threads checkpoints commit on the run's background writer. The
// torn-tip fault waits for the commit before halving the file, so the ring's
// tip is torn and a resume falls back past it.
TEST(CoSearchCheckpoint, TruncFaultTearsTheCommittedTipAtTwoThreads) {
  guard::FaultInjector::global().reset();
  auto cfg = tiny_cosearch_config();
  cfg.exec.threads = 2;
  cfg.ckpt.dir = temp_dir("trunc_async");
  cfg.ckpt.every_iters = 1;
  cfg.ckpt.keep = 8;
  ::setenv("A3CS_FAULT_TRUNC_CKPT", "6", 1);
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  engine.run(6 * 8);
  ::unsetenv("A3CS_FAULT_TRUNC_CKPT");
  guard::FaultInjector::global().reset();

  ckpt::CheckpointManager mgr(cfg.ckpt);
  ASSERT_EQ(mgr.list().back(), 6);
  EXPECT_THROW(ckpt::SectionReader::from_file(mgr.path_for(6)),
               ckpt::CkptError);
  ckpt::SectionReader reader;
  int fallbacks = 0;
  EXPECT_EQ(mgr.load_newest_valid(&reader, &fallbacks), 5);
  EXPECT_EQ(fallbacks, 1);
  fs::remove_all(cfg.ckpt.dir);
}

// A commit that fails on the writer thread surfaces at the next barrier: the
// run throws, and the message names the checkpoint it could not write.
TEST(CoSearchCheckpoint, FailedBackgroundCommitThrowsAtTheNextBarrier) {
  auto cfg = tiny_cosearch_config();
  cfg.exec.threads = 2;
  cfg.ckpt.dir = temp_dir("removed");
  cfg.ckpt.every_iters = 1;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  std::string error;
  try {
    engine.run(
        10 * 8,
        [&](std::int64_t frames) {
          if (frames / 8 != 3) return;
          engine.wait_for_checkpoint();  // checkpoint 3 is on disk
          fs::remove_all(cfg.ckpt.dir);
        },
        8);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find(cfg.ckpt.dir + "/ckpt-000000004.a3ck"),
            std::string::npos)
      << "error: " << error;
  EXPECT_LT(engine.iterations(), 10);
  fs::remove_all(cfg.ckpt.dir);
}

}  // namespace
}  // namespace a3cs
