// Storage-VFS suite (docs/ROBUSTNESS.md §Storage fault model):
//
//   * the real passthrough: open/read/write/append/rename/truncate/
//     remove round-trips, typed open failures, default-vfs scoping;
//   * BufferedVfsFile retention: a faulted flush erases exactly the
//     written prefix, the suffix stays buffered, and a later retry
//     completes the file with no torn bytes — the property the
//     storage-degraded service tier rests on;
//   * FaultyVfs determinism: ENOSPC byte budgets persist the allowed
//     prefix, EIO op windows open and close exactly where configured,
//     short writes persist a seeded strict prefix, close-time
//     write-back failures surface as typed errors (the classic
//     swallowed-fclose bug), and `remove` is never injected;
//   * power loss: a cut keeps every fsync'd prefix, tears the unsynced
//     tail per the seed (byte-identically across re-runs), undoes
//     renames not pinned by a directory barrier, no-ops all I/O while
//     dead, and reboot()/settle() behave as documented;
//   * process crash (kill -9 at an op): unsynced bytes already handed
//     to the vfs and unpinned renames survive, a crashing write keeps a
//     seeded strict prefix, any other crashing op never happens, and
//     bytes still in a BufferedVfsFile die with the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/faulty_vfs.h"
#include "io/vfs.h"

namespace sybil::io {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sybil_vfs_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_all(Vfs& vfs, const std::string& path, const std::string& bytes) {
  auto f = vfs.open(path, VfsMode::kTruncate);
  f->write(bytes.data(), bytes.size());
  f->close();
}

// write_all + a file barrier: content is durable, but a following rename
// still needs a directory fsync (the checkpoint commit pattern).
void write_synced(Vfs& vfs, const std::string& path, const std::string& bytes) {
  auto f = vfs.open(path, VfsMode::kTruncate);
  f->write(bytes.data(), bytes.size());
  f->fsync();
  f->close();
}

// ---------------------------------------------------------------------------
// The real passthrough

TEST(StorageVfs, RealVfsRoundTrip) {
  const std::string dir = fresh_dir("real_rt");
  const std::string path = dir + "/a.bin";
  Vfs& vfs = real_vfs();

  write_all(vfs, path, "hello world");
  {
    auto f = vfs.open(path, VfsMode::kRead);
    char buf[64];
    const std::size_t n = f->read(buf, sizeof buf);
    EXPECT_EQ(std::string(buf, n), "hello world");
    EXPECT_EQ(f->read(buf, sizeof buf), 0u);  // clean EOF
    f->close();
  }
  {
    auto f = vfs.open(path, VfsMode::kAppend);
    f->write("!", 1);
    f->fsync();
    f->close();
    f->close();  // idempotent
  }
  EXPECT_EQ(slurp(path), "hello world!");

  vfs.truncate(path, 5);
  EXPECT_EQ(slurp(path), "hello");

  const std::string moved = dir + "/b.bin";
  vfs.rename(path, moved);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(slurp(moved), "hello");
  vfs.sync_parent_dir(moved);

  EXPECT_TRUE(vfs.remove(moved));
  EXPECT_FALSE(vfs.remove(moved));  // best-effort, never throws
  EXPECT_FALSE(fs::exists(moved));
}

TEST(StorageVfs, OpenMissingFileThrowsTypedOpenError) {
  const std::string dir = fresh_dir("real_missing");
  try {
    real_vfs().open(dir + "/nope.bin", VfsMode::kRead);
    FAIL() << "expected VfsError";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kOpenFailed);
  }
}

TEST(StorageVfs, DefaultVfsScopingRestoresPrevious) {
  Vfs* before = default_vfs();
  ASSERT_NE(before, nullptr);
  FaultyVfs faulty;
  {
    ScopedDefaultVfs guard(&faulty);
    EXPECT_EQ(default_vfs(), &faulty);
  }
  EXPECT_EQ(default_vfs(), before);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection

TEST(StorageFaulty, EnospcBudgetPersistsAllowedPrefix) {
  const std::string dir = fresh_dir("budget");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  FaultConfig cfg;
  cfg.byte_budget = 10;
  vfs.configure(cfg);

  auto f = vfs.open(path, VfsMode::kTruncate);
  const std::string payload = "0123456789abcdef";  // 16 bytes
  try {
    f->write(payload.data(), payload.size());
    FAIL() << "expected kNoSpace";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.kind(), VfsFaultKind::kNoSpace);
    EXPECT_EQ(e.bytes_written(), 10u);  // the crossing write's prefix
  }
  EXPECT_EQ(vfs.faults_injected(), 1u);

  // The caller retries exactly the unwritten suffix after the disk heals.
  vfs.clear_faults();
  f->write(payload.data() + 10, payload.size() - 10);
  f->close();
  EXPECT_EQ(slurp(path), payload);
}

TEST(StorageFaulty, EioWindowOpensAndClosesExactly) {
  const std::string dir = fresh_dir("eio");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  auto f = vfs.open(path, VfsMode::kTruncate);  // op 0
  FaultConfig cfg;
  cfg.fail_from = vfs.ops();  // ops 1 and 2 fail
  cfg.fail_count = 2;
  cfg.fail_kind = VfsFaultKind::kIoError;
  vfs.configure(cfg);

  for (int i = 0; i < 2; ++i) {
    try {
      f->write("x", 1);
      FAIL() << "expected kIoError at op " << i;
    } catch (const VfsError& e) {
      EXPECT_EQ(e.kind(), VfsFaultKind::kIoError);
      EXPECT_EQ(e.bytes_written(), 0u);
    }
  }
  f->write("x", 1);  // the window closed; op 3 succeeds
  f->close();
  EXPECT_EQ(slurp(path), "x");
  EXPECT_EQ(vfs.faults_injected(), 2u);
}

TEST(StorageFaulty, ShortWritePersistsSeededStrictPrefix) {
  const std::string payload(100, 'z');
  std::size_t first_len = 0;
  for (int round = 0; round < 2; ++round) {
    const std::string dir = fresh_dir("short" + std::to_string(round));
    const std::string path = dir + "/f.bin";
    FaultyVfs vfs;
    auto f = vfs.open(path, VfsMode::kTruncate);
    FaultConfig cfg;
    cfg.fail_from = vfs.ops();
    cfg.fail_count = 1;
    cfg.fail_kind = VfsFaultKind::kShortWrite;
    cfg.seed = 42;
    vfs.configure(cfg);
    try {
      f->write(payload.data(), payload.size());
      FAIL() << "expected kShortWrite";
    } catch (const VfsError& e) {
      EXPECT_EQ(e.kind(), VfsFaultKind::kShortWrite);
      EXPECT_LT(e.bytes_written(), payload.size());  // strict prefix
      f->close();
      EXPECT_EQ(slurp(path), payload.substr(0, e.bytes_written()));
      if (round == 0) {
        first_len = e.bytes_written();
      } else {
        EXPECT_EQ(e.bytes_written(), first_len);  // seed-deterministic
      }
    }
  }
}

TEST(StorageFaulty, RemoveIsNeverInjected) {
  const std::string dir = fresh_dir("remove");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  write_all(vfs, path, "x");
  const std::uint64_t ops = vfs.ops();
  FaultConfig cfg;
  cfg.fail_from = 0;
  cfg.fail_count = FaultConfig::kNever;
  vfs.configure(cfg);
  EXPECT_TRUE(vfs.remove(path));  // cleanup arm: no throw, no op charged
  EXPECT_EQ(vfs.ops(), ops);
  EXPECT_FALSE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// BufferedVfsFile retention

TEST(StorageBuffered, FlushErasesExactlyTheWrittenPrefix) {
  const std::string dir = fresh_dir("retain");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  FaultConfig cfg;
  cfg.byte_budget = 10;
  vfs.configure(cfg);

  BufferedVfsFile b(vfs.open(path, VfsMode::kTruncate));
  const std::string payload = "the quick brown fox jumps";  // 25 bytes
  b.write(payload.data(), payload.size());
  EXPECT_EQ(b.buffered(), payload.size());

  try {
    b.flush();
    FAIL() << "expected kNoSpace";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.kind(), VfsFaultKind::kNoSpace);
  }
  // 10 bytes reached the file; exactly the suffix stays buffered.
  EXPECT_EQ(b.buffered(), payload.size() - 10);

  vfs.clear_faults();
  b.flush();  // resumes precisely where the fault struck
  EXPECT_EQ(b.buffered(), 0u);
  b.close();
  EXPECT_EQ(slurp(path), payload);  // no torn or duplicated bytes
}

TEST(StorageBuffered, CloseSurfacesWriteBackFailureAsTypedError) {
  const std::string dir = fresh_dir("close_err");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  BufferedVfsFile b(vfs.open(path, VfsMode::kTruncate));
  b.write("doomed", 6);
  FaultConfig cfg;
  cfg.byte_budget = 0;
  vfs.configure(cfg);
  // The classic fclose bug inverted: the close-time write-back failure
  // is a typed error, not a silently dropped buffer.
  try {
    b.close();
    FAIL() << "expected kNoSpace from close";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.kind(), VfsFaultKind::kNoSpace);
  }
  vfs.clear_faults();
  b.close();  // retry: the retained bytes land
  EXPECT_EQ(slurp(path), "doomed");
}

// ---------------------------------------------------------------------------
// Power loss

TEST(StoragePower, CutKeepsSyncedPrefixAndTearsUnsyncedTail) {
  const std::string dir = fresh_dir("cut");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  FaultConfig cfg;
  cfg.seed = 7;
  vfs.configure(cfg);

  auto f = vfs.open(path, VfsMode::kTruncate);
  f->write("AAAA", 4);
  f->fsync();  // durable barrier
  f->write("BBBBBBBB", 8);
  vfs.cut_power();
  EXPECT_TRUE(vfs.dead());

  const std::string survived = slurp(path);
  ASSERT_GE(survived.size(), 4u);  // the fsync'd prefix always survives
  EXPECT_LT(survived.size(), 12u);  // the unsynced tail never fully does
  EXPECT_EQ(survived.substr(0, 4), "AAAA");

  // Dead device: all I/O silently no-ops until reboot.
  f->write("CCCC", 4);
  char buf[8];
  EXPECT_EQ(f->read(buf, sizeof buf), 0u);
  EXPECT_NO_THROW(vfs.rename(path, dir + "/g.bin"));
  EXPECT_EQ(slurp(path), survived);
  vfs.reboot();
  EXPECT_FALSE(vfs.dead());
}

TEST(StoragePower, TearIsByteDeterministicPerSeed) {
  std::string first;
  for (int round = 0; round < 2; ++round) {
    const std::string dir = fresh_dir("cut_det" + std::to_string(round));
    const std::string path = dir + "/f.bin";
    FaultyVfs vfs;
    FaultConfig cfg;
    cfg.seed = 99;
    vfs.configure(cfg);
    auto f = vfs.open(path, VfsMode::kTruncate);
    const std::string payload(64, 'Q');
    f->write(payload.data(), 16);
    f->fsync();
    f->write(payload.data() + 16, 48);
    vfs.cut_power();
    if (round == 0) {
      first = slurp(path);
    } else {
      EXPECT_EQ(slurp(path), first);  // same seed, same ops → same bytes
    }
  }
}

TEST(StoragePower, CutAtFsyncLandsBeforeDurability) {
  const std::string dir = fresh_dir("cut_fsync");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  FaultConfig cfg;
  cfg.cut_at_fsync = 0;  // the very first barrier
  cfg.seed = 3;
  vfs.configure(cfg);
  auto f = vfs.open(path, VfsMode::kTruncate);
  f->write("unsynced", 8);
  try {
    f->fsync();
    FAIL() << "expected kPowerLoss";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.kind(), VfsFaultKind::kPowerLoss);
  }
  EXPECT_TRUE(vfs.dead());
  // The cut lands before the fsync pins anything: the tail is torn.
  EXPECT_LT(slurp(path).size(), 8u);
}

TEST(StoragePower, CutAtOpFiresAtExactlyThatMutation) {
  const std::string dir = fresh_dir("cut_op");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  auto f = vfs.open(path, VfsMode::kTruncate);  // op 0
  FaultConfig cfg;
  cfg.cut_at_op = vfs.ops() + 1;  // op 1 passes, op 2 cuts
  vfs.configure(cfg);
  f->write("ok", 2);  // op 1
  try {
    f->write("!!", 2);  // op 2
    FAIL() << "expected kPowerLoss";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.kind(), VfsFaultKind::kPowerLoss);
  }
  EXPECT_TRUE(vfs.dead());
}

TEST(StoragePower, RenameUndoneUnlessDirectoryBarrierRan) {
  // Without the directory barrier: the file's bytes are durable (file
  // fsync ran) but the rename lives in directory metadata only, so the
  // cut undoes it and the content reappears under the old name.
  {
    const std::string dir = fresh_dir("ren_undo");
    FaultyVfs vfs;
    write_synced(vfs, dir + "/tmp", "payload");
    vfs.rename(dir + "/tmp", dir + "/final");
    vfs.cut_power();
    EXPECT_FALSE(fs::exists(dir + "/final"));
    EXPECT_EQ(slurp(dir + "/tmp"), "payload");
  }
  // With the barrier: the rename is pinned.
  {
    const std::string dir = fresh_dir("ren_pin");
    FaultyVfs vfs;
    write_synced(vfs, dir + "/tmp", "payload");
    vfs.rename(dir + "/tmp", dir + "/final");
    vfs.sync_parent_dir(dir + "/final");
    vfs.cut_power();
    EXPECT_EQ(slurp(dir + "/final"), "payload");
  }
}

TEST(StoragePower, SettleDeclaresHistoryDurable) {
  const std::string dir = fresh_dir("settle");
  FaultyVfs vfs;
  write_all(vfs, dir + "/tmp", "generation");
  vfs.rename(dir + "/tmp", dir + "/final");  // no barrier ran
  vfs.settle();  // ...but the device quiesced before the fault plan
  vfs.cut_power();
  EXPECT_EQ(slurp(dir + "/final"), "generation");  // intact, rename kept
}

FaultConfig crash_at(std::uint64_t op, std::uint64_t seed = 0) {
  FaultConfig cfg;
  cfg.fail_from = op;
  cfg.fail_count = 1;
  cfg.fail_kind = VfsFaultKind::kProcessCrash;
  cfg.seed = seed;
  return cfg;
}

TEST(StorageCrash, KeepsWhatReachedTheVfsAndTearsTheCrashingWrite) {
  const std::string dir = fresh_dir("crash_write");
  const std::string path = dir + "/f.bin";
  FaultyVfs vfs;
  write_all(vfs, dir + "/tmp", "renamed");
  vfs.rename(dir + "/tmp", dir + "/final");  // no directory barrier
  auto f = vfs.open(path, VfsMode::kTruncate);
  f->write("unsynced", 8);  // never fsync'd: still survives a kill
  vfs.configure(crash_at(vfs.ops(), /*seed=*/5));
  const std::string tail(40, 'T');
  try {
    f->write(tail.data(), tail.size());
    FAIL() << "expected kProcessCrash";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.kind(), VfsFaultKind::kProcessCrash);
    EXPECT_LT(e.bytes_written(), tail.size());  // strict prefix
    EXPECT_EQ(slurp(path), "unsynced" + tail.substr(0, e.bytes_written()));
  }
  EXPECT_TRUE(vfs.dead());
  f->write("late", 4);  // the process is gone: nothing lands
  EXPECT_EQ(slurp(dir + "/final"), "renamed");  // the rename stands
  vfs.reboot();
  EXPECT_FALSE(vfs.dead());
}

TEST(StorageCrash, CrashingOpNeverHappensAndBufferedBytesDie) {
  const std::string dir = fresh_dir("crash_rename");
  FaultyVfs vfs;
  write_all(vfs, dir + "/tmp", "payload");
  {
    BufferedVfsFile buffered(vfs.open(dir + "/log", VfsMode::kTruncate));
    buffered.write("flushed", 7);
    buffered.flush();
    buffered.write("buffered", 8);  // still in the process's memory
    vfs.configure(crash_at(vfs.ops()));
    EXPECT_THROW(vfs.rename(dir + "/tmp", dir + "/final"), VfsError);
  }  // the buffer's destructor flushes into a dead device
  EXPECT_TRUE(vfs.dead());
  EXPECT_FALSE(fs::exists(dir + "/final"));
  EXPECT_EQ(slurp(dir + "/tmp"), "payload");
  EXPECT_EQ(slurp(dir + "/log"), "flushed");
}

}  // namespace
}  // namespace sybil::io
