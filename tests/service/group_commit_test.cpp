// WAL group-commit suite (ISSUE 7 tentpole b):
//
//   * unit level: appends inside a begin_group()/commit_group() bracket
//     buffer in the segment file and land with ONE flush at commit;
//     commit reports the group size, and a process crash at the commit
//     keeps a strict prefix of the group (all of it once the commit's
//     write is done); abort closes the bracket without the fsync;
//   * bracket misuse fails loudly (double begin, commit without begin);
//   * trajectory identity: driving a ShardRouter through offer_batch()
//     produces byte-identical per-shard stats JSON and merged flags to
//     the per-event offer() path with the same pump cadence;
//   * crash sweep: a process crash at EVERY storage op of a batched
//     3-shard drive — group commits and the segment rotations inside a
//     batch before its commit included — then resuming from the
//     recovered min frontier reproduces the uninterrupted run byte-for-
//     byte (the PR 5/6 recovery contract, extended to the coalesced
//     durability boundary);
//   * the parallel shard pump is byte-identical at SYBIL_THREADS 1 / 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "io/faulty_vfs.h"
#include "service/router.h"
#include "service/wal.h"
#include "service/workload.h"
#include "support/crash_vfs.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

class GroupCommit : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

// Heavy boundary sweep under its own fixture name, mirroring the
// ShardedRecovery split (CMakePresets.json tsan filter).
using GroupCommitRecovery = GroupCommit;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sybil_gc_" + name;
  fs::remove_all(dir);
  return dir;
}

osn::Event event_at(std::uint64_t i) {
  osn::Event e;
  e.type = osn::EventType::kRequestSent;
  e.actor = static_cast<graph::NodeId>(i + 1);
  e.subject = static_cast<graph::NodeId>(i + 2);
  e.time = 0.25 * static_cast<double>(i);
  return e;
}

std::string only_segment(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "expected a single segment";
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty());
  return found;
}

constexpr std::uint64_t kWalHeaderBytes = 24;
constexpr std::uint64_t kWalRecordBytes = 44;

TEST_F(GroupCommit, AppendsBufferUntilTheCommitFlush) {
  const std::string dir = fresh_dir("buffer");
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kEveryAppend;
  WalWriter w(opts, 0);

  // Outside a group, kEveryAppend flushes per record.
  w.append(event_at(0), 0, 0);
  const std::string seg = only_segment(dir);
  EXPECT_EQ(fs::file_size(seg), kWalHeaderBytes + kWalRecordBytes);

  // Inside the bracket, records stay in the stdio buffer: the on-disk
  // size must not move until commit_group() issues the single flush.
  w.begin_group();
  EXPECT_TRUE(w.in_group());
  for (std::uint64_t i = 1; i <= 10; ++i) w.append(event_at(i), i, 0);
  EXPECT_EQ(fs::file_size(seg), kWalHeaderBytes + kWalRecordBytes);
  EXPECT_EQ(w.commit_group(), 10u);
  EXPECT_FALSE(w.in_group());
  EXPECT_EQ(fs::file_size(seg), kWalHeaderBytes + 11 * kWalRecordBytes);

  // Every buffered record became exactly as durable as per-record
  // fsync would have made it.
  w.sync();
  WalScanReport report;
  const auto records = scan_wal(dir, 0, report);
  ASSERT_EQ(records.size(), 11u);
  EXPECT_EQ(report.torn_tails_healed, 0u);
}

TEST_F(GroupCommit, CrashAtTheCommitKeepsAStrictPrefixOfTheGroup) {
  // The commit is one write then one fsync. A crash at the fsync keeps
  // the whole group (the write already handed it to the vfs); a crash
  // at the write keeps a seeded strict prefix of it.
  for (const std::uint64_t commit_op : {1u, 0u}) {
    const std::string dir = fresh_dir("commit_crash");
    io::FaultyVfs vfs(&crashtest::sweep_vfs());
    WalOptions opts;
    opts.dir = dir;
    opts.fsync = WalFsync::kEveryAppend;
    opts.vfs = &vfs;
    {
      WalWriter w(opts, 0);
      w.begin_group();
      for (std::uint64_t i = 0; i < 5; ++i) w.append(event_at(i), i, 0);
      crashtest::arm_crash(vfs, vfs.ops() + commit_op);
      EXPECT_THROW(w.commit_group(), io::VfsError);
    }
    WalScanReport report;
    const std::size_t kept = scan_wal(dir, 0, report).size();
    if (commit_op == 1) {
      EXPECT_EQ(kept, 5u);
      EXPECT_EQ(report.torn_tails_healed, 0u);
    } else {
      EXPECT_LT(kept, 5u);
    }
  }
}

TEST_F(GroupCommit, BracketMisuseThrowsAndAbortClosesQuietly) {
  const std::string dir = fresh_dir("misuse");
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kEveryAppend;
  opts.vfs = &vfs;
  WalWriter w(opts, 0);
  const std::uint64_t fsyncs = vfs.fsyncs();

  EXPECT_THROW(w.commit_group(), std::logic_error);
  w.begin_group();
  EXPECT_THROW(w.begin_group(), std::logic_error);
  w.append(event_at(0), 0, 0);

  // Abort is the unwind path: it closes the bracket without the commit
  // fsync, and is idempotent.
  w.abort_group();
  w.abort_group();
  EXPECT_FALSE(w.in_group());
  EXPECT_EQ(vfs.fsyncs(), fsyncs);

  // A fresh bracket opens cleanly after an abort.
  w.begin_group();
  w.append(event_at(1), 1, 0);
  EXPECT_EQ(w.commit_group(), 1u);
  EXPECT_EQ(vfs.fsyncs(), fsyncs + 1);
}

// ---- Router-level batch semantics ----------------------------------

ShardRouterOptions router_options(const std::string& dir,
                                  std::uint32_t shards,
                                  io::Vfs* vfs = &crashtest::sweep_vfs()) {
  ShardRouterOptions o;
  o.shards = shards;
  o.shard.dir = dir;
  o.shard.vfs = vfs;  // skips fsyncs: group commits stay cheap ops
  o.shard.wal_fsync = WalFsync::kEveryAppend;
  o.shard.wal_segment_records = 32;
  o.shard.checkpoint_every = 96;
  o.shard.checkpoint_retain = 2;
  o.shard.detector.rule.invite_rate_min = 4.0;
  o.shard.detector.rule.outgoing_accept_max = 0.5;
  o.shard.detector.rule.min_requests = 5;
  return o;
}

WorkloadOptions workload_options() {
  WorkloadOptions w;
  w.accounts = 64;
  w.events = 400;
  w.hours = 6.0;
  w.seed = 77;
  w.burst_senders = 2;
  w.burst_fraction = 0.3;
  w.malformed_fraction = 0.02;
  return w;
}

constexpr std::uint64_t kBatch = 64;

/// [first, last) storage-op indices one offer_batch call issued.
using OpSpan = std::pair<std::size_t, std::size_t>;

/// Offers log[from..N) in kBatch-sized group-committed runs, pumping
/// after each — the same cadence drive_serial uses, so the two paths
/// must agree on every replay-exact counter. With an op log, records
/// the span of ops each offer_batch issued into `batches`.
void drive_batched(ShardRouter& router, const std::vector<osn::Event>& log,
                   std::uint64_t from,
                   const std::vector<crashtest::StorageOp>* ops = nullptr,
                   std::vector<OpSpan>* batches = nullptr) {
  const std::span<const osn::Event> all(log);
  for (std::uint64_t base = from; base < log.size(); base += kBatch) {
    const std::size_t n =
        std::min<std::size_t>(kBatch, log.size() - base);
    const std::size_t first = ops != nullptr ? ops->size() : 0;
    router.offer_batch(all.subspan(base, n), base);
    if (ops != nullptr) batches->emplace_back(first, ops->size());
    router.pump();
  }
  router.flush(/*checkpoint=*/true);
}

void drive_serial(ShardRouter& router, const std::vector<osn::Event>& log,
                  std::uint64_t from) {
  for (std::uint64_t i = from; i < log.size(); ++i) {
    router.offer(log[i], i);
    if ((i + 1 - from) % kBatch == 0) router.pump();
  }
  router.flush(/*checkpoint=*/true);
}

struct CapturedRun {
  std::vector<std::string> shard_stats;
  core::FlagBatch flags;
};

CapturedRun capture(ShardRouter& router, double sweep_at) {
  router.sweep_flags(sweep_at);
  EXPECT_TRUE(router.accounting_ok());
  CapturedRun run;
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    run.shard_stats.push_back(router.shard(i).stats_json());
  }
  run.flags = router.take_flagged();
  return run;
}

void expect_runs_equal(const CapturedRun& a, const CapturedRun& b) {
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (std::size_t i = 0; i < a.shard_stats.size(); ++i) {
    EXPECT_EQ(a.shard_stats[i], b.shard_stats[i]) << "shard " << i;
  }
  ASSERT_EQ(a.flags.size(), b.flags.size());
  for (std::size_t i = 0; i < a.flags.size(); ++i) {
    EXPECT_EQ(a.flags[i].account, b.flags[i].account) << i;
    EXPECT_DOUBLE_EQ(a.flags[i].flagged_at, b.flags[i].flagged_at) << i;
    EXPECT_EQ(a.flags[i].features.as_vector(), b.flags[i].features.as_vector())
        << i;
  }
}

TEST_F(GroupCommit, BatchTrajectoryIdenticalToSerialOffers) {
  const std::vector<osn::Event> log = synthetic_workload(workload_options());

  ShardRouter serial(router_options(fresh_dir("traj_serial"), 3));
  serial.start();
  drive_serial(serial, log, 0);

  ShardRouter batched(router_options(fresh_dir("traj_batch"), 3));
  batched.start();
  drive_batched(batched, log, 0);

  // Transport accounting agrees too — batching changes fsync count,
  // never fanout.
  EXPECT_EQ(serial.offers(), batched.offers());
  EXPECT_EQ(serial.copies_routed(), batched.copies_routed());
  EXPECT_EQ(serial.copies_delivered(), batched.copies_delivered());

  expect_runs_equal(capture(serial, 7.0), capture(batched, 7.0));
}

TEST_F(GroupCommit, ParallelPumpByteIdenticalAcrossThreadCounts) {
  const std::vector<osn::Event> log = synthetic_workload(workload_options());

  core::set_thread_count(1);
  ShardRouter one(router_options(fresh_dir("pump_t1"), 4));
  one.start();
  drive_batched(one, log, 0);
  const CapturedRun run_one = capture(one, 7.0);

  core::set_thread_count(8);
  ShardRouter eight(router_options(fresh_dir("pump_t8"), 4));
  eight.start();
  drive_batched(eight, log, 0);
  const CapturedRun run_eight = capture(eight, 7.0);
  core::set_thread_count(0);  // back to automatic

  expect_runs_equal(run_one, run_eight);
}

/// A process crash at EVERY storage op of the batched 3-shard drive —
/// the shards share one device, so each crash kills the whole fleet —
/// then recovery, a resume from the router's min frontier with the
/// same batched drive, and the uninterrupted run's bytes. The crash
/// unwinds through offer_batch's abort path, so surviving shards' open
/// groups must not poison the restarted drive. Among the points: every
/// group commit, and segment rotations inside a batch before its commit.
TEST_F(GroupCommitRecovery, KillAtEveryGroupCommitBoundary) {
  const std::vector<osn::Event> log = synthetic_workload(workload_options());

  // The uninterrupted run, logging the storage ops the sweep iterates.
  std::vector<crashtest::StorageOp> ops;
  std::vector<OpSpan> batches;
  CapturedRun want;
  {
    crashtest::SweepVfs logged;
    logged.record(&ops);
    ShardRouter clean(router_options(fresh_dir("sweep_clean"), 3, &logged));
    clean.start();
    drive_batched(clean, log, 0, &ops, &batches);
    want = capture(clean, 7.0);
  }
  ASSERT_GT(batches.size(), 5u) << "sweep would be vacuous";
  // Commits never open a file, so a WAL open inside a batch's op span
  // is a rotation ahead of that batch's commit.
  const auto rotation_in_batch = [&](std::size_t k) {
    if (ops[k].kind != crashtest::StorageOp::Kind::kOpen ||
        ops[k].path.find("/wal/") == std::string::npos) {
      return false;
    }
    return std::any_of(batches.begin(), batches.end(), [k](const OpSpan& b) {
      return k >= b.first && k < b.second;
    });
  };

  const std::string dir = fresh_dir("sweep");
  std::size_t rotations_in_batch = 0;
  for (std::uint64_t k = 0; k < ops.size(); ++k) {
    fs::remove_all(dir);
    io::FaultyVfs vfs(&crashtest::sweep_vfs());
    crashtest::arm_crash(vfs, k);
    bool crashed = false;
    {
      ShardRouter victim(router_options(dir, 3, &vfs));
      try {
        victim.start();
        drive_batched(victim, log, 0);
      } catch (const io::VfsError& e) {
        ASSERT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
        crashed = true;
      }
    }  // process death: buffered bytes of every shard die with it
    ASSERT_TRUE(crashed) << "op " << k << " never reached";

    ShardRouter revived(router_options(dir, 3));
    const RouterRecoveryReport report = revived.start();
    ASSERT_TRUE(revived.accounting_ok()) << "op " << k;
    ASSERT_LE(report.next_seq, log.size());
    drive_batched(revived, log, report.next_seq);
    const CapturedRun got = capture(revived, 7.0);
    ASSERT_EQ(got.shard_stats, want.shard_stats) << "op " << k;
    expect_runs_equal(got, want);
    if (rotation_in_batch(k)) ++rotations_in_batch;
  }
  EXPECT_GT(rotations_in_batch, 0u)
      << "no crash point landed on a rotation inside offer_batch";
}

}  // namespace
}  // namespace sybil::service
