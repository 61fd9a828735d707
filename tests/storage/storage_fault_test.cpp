// Storage fault sweeps (docs/ROBUSTNESS.md §Storage fault model) — the
// headline recoverability proofs behind the injectable VFS:
//
//   * ENOSPC at EVERY mutating storage op of a ground-truth service
//     run: the supervisor never crashes and never loses an offer — it
//     rides the storage-degraded tier and, once the disk heals, the
//     finished run's flag verdicts and accounting JSON are
//     byte-identical to the undisturbed run (ENOSPC on the very first
//     boot op is also fine: start() fails typed and a fresh boot on the
//     same dir recovers);
//   * an atomic container commit aborted by ENOSPC at EVERY op leaves
//     the previously committed target byte-identical and no temp file
//     behind;
//   * power loss at EVERY fsync barrier (real-fsync mode, so renames
//     pin exactly as in production): every checkpoint generation that
//     survives the cut still loads — torn state is confined to the WAL
//     tail recovery is built to heal — and the recovered service,
//     re-driven from the report's resume point, finishes byte-identical
//     to the run that never lost power.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "io/container.h"
#include "io/faulty_vfs.h"
#include "io/vfs.h"
#include "osn/events.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "service/workload.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testsupport::fresh_temp_path("sybil_stor_", name);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Small but behaviourally complete stream: two burst senders hot
/// enough to cross the relaxed rule below, organic accept/reject mix.
std::vector<osn::Event> build_log() {
  WorkloadOptions w;
  w.accounts = 48;
  w.events = 240;
  w.hours = 6.0;
  w.seed = 5;
  w.burst_senders = 2;
  w.burst_fraction = 0.3;
  return synthetic_workload(w);
}

ServiceOptions make_options(const std::string& dir, io::Vfs* vfs) {
  ServiceOptions o;
  o.dir = dir;
  o.vfs = vfs;
  // Every append fsyncs and segments/checkpoints roll often, so the op
  // sweep crosses every kind of write point many times in 240 events.
  o.wal_fsync = WalFsync::kEveryAppend;
  o.wal_segment_records = 32;
  o.checkpoint_every = 64;
  o.checkpoint_retain = 2;
  o.detector.ingest.watermark_hours = 500.0;  // absorb log inversions
  o.detector.rule.invite_rate_min = 4.0;
  o.detector.rule.min_requests = 5;
  return o;
}

/// Index-aligned driver (the recovery-suite idiom): offers log[i] with
/// seq i and pumps on a cadence keyed to stream position, so admission
/// decisions are a pure function of position and replay-exact.
void drive(ServiceSupervisor& s, const std::vector<osn::Event>& log,
           std::uint64_t offer_from = 0, std::uint64_t pump_from = 0) {
  for (std::uint64_t i = std::min(offer_from, pump_from); i < log.size();
       ++i) {
    if (i >= offer_from) {
      s.offer(log[i], i);
      s.commit();
    }
    if (i >= pump_from && i % 7 == 6) s.pump(3);
  }
}

struct RunResult {
  std::string stats;
  core::FlagBatch flags;
};

void expect_flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].account, b[i].account) << i;
    ASSERT_DOUBLE_EQ(a[i].flagged_at, b[i].flagged_at) << i;
    ASSERT_DOUBLE_EQ(a[i].features.invite_rate_short,
                     b[i].features.invite_rate_short)
        << i;
    ASSERT_DOUBLE_EQ(a[i].features.outgoing_accept_ratio,
                     b[i].features.outgoing_accept_ratio)
        << i;
  }
}

// ---------------------------------------------------------------------------
// ENOSPC sweeps (fsync knob off: thousands of throwaway commits)

class StorageEnospcSweep : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

TEST_F(StorageEnospcSweep, EveryWritePointIsSurvivable) {
  const std::vector<osn::Event> log = build_log();

  // Reference run through a clean FaultyVfs: same op sequence as every
  // victim below up to its fault, and the op count bounds the sweep.
  RunResult control;
  std::uint64_t clean_ops = 0;
  {
    const std::string dir = fresh_dir("enospc_control");
    io::FaultyVfs vc;
    ServiceSupervisor s(make_options(dir, &vc));
    EXPECT_TRUE(s.start().cold_start);
    drive(s, log);
    s.flush();
    EXPECT_TRUE(s.accounting_ok());
    control.stats = s.stats_json();
    control.flags = s.take_flagged();
    clean_ops = vc.ops();
    fs::remove_all(dir);
  }
  ASSERT_FALSE(control.flags.empty());  // the property must bite
  ASSERT_GT(clean_ops, 100u);

  std::uint64_t runs_degraded = 0;
  std::uint64_t boot_failures = 0;
  for (std::uint64_t k = 0; k < clean_ops; ++k) {
    SCOPED_TRACE("ENOSPC from op " + std::to_string(k));
    const std::string dir = fresh_dir("enospc_sweep");
    io::FaultyVfs v;
    io::FaultConfig cfg;
    cfg.fail_from = k;
    cfg.fail_count = io::FaultConfig::kNever;  // the disk stays full
    cfg.fail_kind = io::VfsFaultKind::kNoSpace;
    v.configure(cfg);

    auto s = std::make_unique<ServiceSupervisor>(make_options(dir, &v));
    try {
      s->start();
    } catch (const io::VfsError& e) {
      // ENOSPC on a boot op: loud and typed, and a fresh boot on the
      // same dir after the disk heals must succeed.
      ASSERT_EQ(e.kind(), io::VfsFaultKind::kNoSpace);
      ++boot_failures;
      v.clear_faults();
      s = std::make_unique<ServiceSupervisor>(make_options(dir, &v));
      s->start();
    }
    // offer() never throws ENOSPC: the supervisor degrades instead.
    drive(*s, log);
    if (s->storage_degraded()) ++runs_degraded;
    EXPECT_TRUE(s->accounting_ok());

    v.clear_faults();  // the disk heals
    ASSERT_TRUE(s->retry_storage_now());
    EXPECT_FALSE(s->storage_degraded());
    s->flush();

    // Headline: byte-identical to the run whose disk never filled.
    EXPECT_EQ(s->stats_json(), control.stats);
    expect_flags_equal(s->take_flagged(), control.flags);
    s.reset();
    fs::remove_all(dir);
  }
  // The sweep must actually have exercised the degraded tier, not just
  // clean tails past the last write.
  EXPECT_GT(runs_degraded, clean_ops / 2);
  EXPECT_GT(boot_failures, 0u);
}

TEST_F(StorageEnospcSweep, ContainerCommitNeverTearsTheTarget) {
  const std::string dir = fresh_dir("container");
  const std::string target = dir + "/data.sybc";

  io::ContainerWriter w(io::PayloadKind::kServiceCheckpoint);
  w.add_section(1, std::vector<std::byte>(300, std::byte{0xAB}));
  w.add_section(2, std::vector<std::byte>(77, std::byte{0x01}));
  w.add_section(7, std::vector<std::byte>(512, std::byte{0xFE}));

  // Clean commit through a counting vfs bounds the sweep.
  io::FaultyVfs vc;
  w.commit(target, io::SyncMode::kEnv, &vc);
  const std::string committed = slurp(target);
  const std::uint64_t clean_ops = vc.ops();
  ASSERT_GT(clean_ops, 2u);  // temp open + write(s) + rename at least

  for (std::uint64_t k = 0; k < clean_ops; ++k) {
    SCOPED_TRACE("ENOSPC from op " + std::to_string(k));
    io::FaultyVfs v;
    io::FaultConfig cfg;
    cfg.fail_from = k;
    cfg.fail_count = io::FaultConfig::kNever;
    cfg.fail_kind = io::VfsFaultKind::kNoSpace;
    v.configure(cfg);
    EXPECT_THROW(w.commit(target, io::SyncMode::kEnv, &v), io::VfsError);
    // The committed generation is untouched and the temp was removed.
    EXPECT_EQ(slurp(target), committed);
    std::size_t entries = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++entries;
    }
    EXPECT_EQ(entries, 1u);
  }
}

// ---------------------------------------------------------------------------
// Power-loss sweep (real fsync: barriers and rename pinning must work
// exactly as in production for the torn-state model to mean anything)

class StoragePowerLossSweep : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

TEST_F(StoragePowerLossSweep, EveryFsyncBarrierIsSurvivable) {
  const std::vector<osn::Event> log = build_log();

  RunResult control;
  std::uint64_t clean_fsyncs = 0;
  {
    const std::string dir = fresh_dir("cut_control");
    io::FaultyVfs vc;
    ServiceSupervisor s(make_options(dir, &vc));
    EXPECT_TRUE(s.start().cold_start);
    drive(s, log);
    s.flush();
    control.stats = s.stats_json();
    control.flags = s.take_flagged();
    clean_fsyncs = vc.fsyncs();
    fs::remove_all(dir);
  }
  ASSERT_FALSE(control.flags.empty());
  ASSERT_GT(clean_fsyncs, 200u);  // kEveryAppend: ~one per offer

  for (std::uint64_t f = 0; f < clean_fsyncs; ++f) {
    SCOPED_TRACE("power cut at fsync " + std::to_string(f));
    const std::string dir = fresh_dir("cut_sweep");
    io::FaultyVfs v;
    io::FaultConfig cfg;
    cfg.cut_at_fsync = f;
    cfg.seed = f * 1000003 + 17;  // vary the torn-tail shape per cut
    v.configure(cfg);

    auto victim = std::make_unique<ServiceSupervisor>(make_options(dir, &v));
    bool cut = false;
    try {
      victim->start();
      drive(*victim, log);
      victim->flush();
    } catch (const io::VfsError& e) {
      // Power loss is the one storage fault that must NOT degrade:
      // the machine is gone, so it propagates typed.
      ASSERT_EQ(e.kind(), io::VfsFaultKind::kPowerLoss);
      cut = true;
    }
    // The victim's fsync ordinals track the control run exactly, so
    // every f below the clean total fires mid-run.
    ASSERT_TRUE(cut);
    victim.reset();  // dead device: teardown I/O silently no-ops

    v.reboot();
    // Generations are never corrupted by a cut: a checkpoint is only
    // visible if its bytes were fsync'd before the rename, and an
    // unpinned rename was undone by the cut. Whatever the cut left
    // visible must load.
    for (const auto& [pos, path] : list_checkpoints(dir + "/ckpt")) {
      SCOPED_TRACE(path);
      EXPECT_NO_THROW(load_service_checkpoint(path));
    }

    // Recover on the torn state root and finish the stream.
    ServiceSupervisor s(make_options(dir, &v));
    const RecoveryReport rep = s.start();
    drive(s, log, rep.next_index, rep.checkpoint_position);
    s.flush();
    EXPECT_TRUE(s.accounting_ok());
    EXPECT_EQ(s.stats_json(), control.stats);
    expect_flags_equal(s.take_flagged(), control.flags);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace sybil::service
