// Storage-degraded service tier (docs/ROBUSTNESS.md §Storage fault
// model): the fourth degradation response, alongside the three queue
// tiers. When the disk under the WAL rejects writes the supervisor
// serves verdicts from memory, buffers appends in the WAL writer's
// bounded buffer, suspends checkpoints (counted), and makes one retry
// at every commit().
//
//   * a run that degrades through an ENOSPC window and heals is
//     byte-identical (flags, stats_json) to one that never degraded —
//     pinned at SYBIL_THREADS=1 and 8 (the tsan preset runs this);
//   * the buffer bound fails loudly: a typed StorageBufferOverflow
//     that does NOT count the offer, leaving the caller free to
//     re-offer it after the disk heals;
//   * an overflow that unwinds a router's offer_batch midway keeps
//     every identity, and the re-offered stream ends byte-identical on
//     disk to a run that never faulted;
//   * offers never retry; each commit() while degraded is one retry;
//   * suspended checkpoints are counted, never silently skipped, and
//     never touch the generation directory;
//   * flush() while degraded forces a retry and throws the original
//     fault kind if the disk still refuses;
//   * power loss never degrades: it propagates typed (the machine is
//     gone; recovery is the crash path's job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "io/faulty_vfs.h"
#include "io/vfs.h"
#include "osn/events.h"
#include "service/checkpoint.h"
#include "service/router.h"
#include "service/supervisor.h"
#include "service/workload.h"
#include "support/crash_vfs.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

class StorageDegraded : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = testsupport::fresh_temp_path("sybil_deg_", name);
  fs::create_directories(dir);
  return dir;
}

std::vector<osn::Event> build_log(std::uint64_t events = 240) {
  WorkloadOptions w;
  w.accounts = 48;
  w.events = events;
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
  // Every append reaches the disk through the vfs immediately, so a
  // configured fault fires on the very next offer.
  o.wal_fsync = WalFsync::kEveryAppend;
  o.wal_segment_records = 32;
  o.checkpoint_every = 64;
  o.checkpoint_retain = 2;
  o.detector.ingest.watermark_hours = 500.0;
  o.detector.rule.invite_rate_min = 4.0;
  o.detector.rule.min_requests = 5;
  return o;
}

void expect_flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].account, b[i].account) << i;
    ASSERT_DOUBLE_EQ(a[i].flagged_at, b[i].flagged_at) << i;
  }
}

struct RunResult {
  std::string stats;
  core::FlagBatch flags;
};

/// One full run, committing after every offer; when `faulted`, the
/// disk fills at offer 100 and heals (with a forced retry) at offer 180
/// — the degraded window rides ~80 offers, a failed retry at each of
/// their commits and two checkpoint boundaries.
RunResult run_stream(const std::vector<osn::Event>& log, bool faulted,
                     const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  io::FaultyVfs v;
  ServiceSupervisor s(make_options(dir, &v));
  EXPECT_TRUE(s.start().cold_start);
  for (std::uint64_t i = 0; i < log.size(); ++i) {
    if (faulted && i == 100) {
      io::FaultConfig cfg;
      cfg.byte_budget = 0;
      v.configure(cfg);
    }
    if (faulted && i == 180) {
      v.clear_faults();
      EXPECT_TRUE(s.retry_storage_now());
    }
    s.offer(log[i], i);
    s.commit();
    if (i % 7 == 6) s.pump(3);
  }
  s.flush();
  EXPECT_TRUE(s.accounting_ok());
  if (faulted) {
    EXPECT_GE(s.storage_degraded_entries(), 1u);
    EXPECT_GE(s.storage_degraded_exits(), 1u);
    EXPECT_GE(s.storage_retry_failures(), 1u);  // in-window retries failed
    EXPECT_FALSE(s.storage_degraded());
    EXPECT_EQ(s.storage_error_kind(), io::VfsFaultKind::kNoSpace);
    EXPECT_GE(s.storage_checkpoints_suspended(), 1u);
  } else {
    EXPECT_EQ(s.storage_degraded_entries(), 0u);
  }
  RunResult r;
  r.stats = s.stats_json();
  r.flags = s.take_flagged();
  return r;
}

// The name the tsan preset's filter regex pins — the degraded tier is
// single-threaded by design and SYBIL_THREADS must not perturb it.
TEST_F(StorageDegraded, ByteIdenticalAcrossThreadCounts) {
  const std::vector<osn::Event> log = build_log();
  RunResult first_clean;
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("SYBIL_THREADS=" + std::to_string(threads));
    core::set_thread_count(threads);
    const std::string tag = "t" + std::to_string(threads);
    const RunResult clean = run_stream(log, false, "clean_" + tag);
    const RunResult degraded = run_stream(log, true, "deg_" + tag);
    ASSERT_FALSE(clean.flags.empty());
    // The degraded window is invisible in everything replay-exact.
    EXPECT_EQ(degraded.stats, clean.stats);
    expect_flags_equal(degraded.flags, clean.flags);
    // ...and the whole property is thread-count-invariant.
    if (threads == 1) {
      first_clean = clean;
    } else {
      EXPECT_EQ(clean.stats, first_clean.stats);
      expect_flags_equal(clean.flags, first_clean.flags);
    }
  }
  core::set_thread_count(0);
}

TEST_F(StorageDegraded, BufferOverflowThrowsTypedAndDropsNothing) {
  constexpr std::uint64_t kBound = kStorageBufferRecords;
  const std::vector<osn::Event> log = build_log(kBound + 64);
  const auto offer = [&log](ServiceSupervisor& s, std::uint64_t i) {
    s.offer(log[i], i);
    s.commit();
    if (i % 64 == 63) s.pump();
  };
  RunResult control;
  {
    const std::string dir = fresh_dir("ovf_control");
    io::FaultyVfs v(&crashtest::sweep_vfs());
    ServiceSupervisor s(make_options(dir, &v));
    s.start();
    for (std::uint64_t i = 0; i < log.size(); ++i) offer(s, i);
    s.flush();
    control.stats = s.stats_json();
    control.flags = s.take_flagged();
  }

  const std::string dir = fresh_dir("ovf");
  io::FaultyVfs v(&crashtest::sweep_vfs());
  ServiceSupervisor s(make_options(dir, &v));
  s.start();
  io::FaultConfig cfg;
  cfg.byte_budget = 0;
  v.configure(cfg);

  // Offer 0's commit enters degraded mode with its record retained;
  // offers 1..kBound-1 buffer behind it. Offer kBound would exceed the
  // bound.
  for (std::uint64_t i = 0; i < kBound; ++i) offer(s, i);
  EXPECT_TRUE(s.storage_degraded());
  EXPECT_EQ(s.storage_buffered(), kBound);
  const std::uint64_t offered_before = s.offered();
  try {
    s.offer(log[kBound], kBound);
    FAIL() << "expected StorageBufferOverflow";
  } catch (const StorageBufferOverflow& e) {
    EXPECT_EQ(e.shard(), 0u);
    EXPECT_EQ(e.buffered(), kBound);
  }
  // The overflowed offer was not logged and not counted: the caller
  // may simply re-offer it once the disk heals.
  EXPECT_EQ(s.offered(), offered_before);
  EXPECT_TRUE(s.accounting_ok());

  v.clear_faults();
  EXPECT_EQ(s.commit(), kBound);  // the retry flushed the backlog whole
  EXPECT_FALSE(s.storage_degraded());
  EXPECT_EQ(s.storage_buffered(), 0u);
  for (std::uint64_t i = kBound; i < log.size(); ++i) offer(s, i);
  s.flush();
  EXPECT_EQ(s.stats_json(), control.stats);
  expect_flags_equal(s.take_flagged(), control.flags);
}

TEST_F(StorageDegraded, RetriesOncePerCommit) {
  const std::vector<osn::Event> log = build_log(64);
  const std::string dir = fresh_dir("retry");
  io::FaultyVfs v;
  ServiceOptions o = make_options(dir, &v);
  o.checkpoint_every = 0;  // no checkpoint noise in the op sequence
  ServiceSupervisor s(o);
  s.start();
  io::FaultConfig cfg;
  cfg.byte_budget = 0;
  v.configure(cfg);

  // Offers never touch storage, so nothing degrades before a commit.
  const std::uint64_t ops = v.ops();
  for (std::uint64_t i = 0; i < 4; ++i) s.offer(log[i], i);
  EXPECT_EQ(v.ops(), ops);
  EXPECT_FALSE(s.storage_degraded());
  EXPECT_EQ(s.storage_buffered(), 4u);

  // The first failing commit enters degraded mode; it is not a retry.
  EXPECT_EQ(s.commit(), 0u);
  ASSERT_TRUE(s.storage_degraded());
  EXPECT_EQ(s.storage_retries(), 0u);

  // From then on every commit is exactly one retry, and an offer alone
  // is none.
  for (std::uint64_t i = 4; i < 34; ++i) {
    s.offer(log[i], i);
    EXPECT_EQ(s.storage_retries(), i - 4) << "after offer " << i;
    EXPECT_EQ(s.commit(), 0u);
    EXPECT_EQ(s.storage_retries(), i - 3) << "after commit " << i;
  }
  EXPECT_EQ(s.storage_retry_failures(), 30u);
  EXPECT_EQ(s.storage_buffered(), 34u);

  // The retry that succeeds flushes the whole backlog and ends the
  // degraded episode; later commits are plain commits again.
  v.clear_faults();
  EXPECT_EQ(s.commit(), 34u);
  EXPECT_FALSE(s.storage_degraded());
  EXPECT_EQ(s.storage_retries(), 31u);
  EXPECT_EQ(s.storage_retry_failures(), 30u);
  EXPECT_EQ(s.storage_degraded_exits(), 1u);
  s.offer(log[34], 34);
  EXPECT_EQ(s.commit(), 1u);
  EXPECT_EQ(s.storage_retries(), 31u);
}

TEST_F(StorageDegraded, SuspendedCheckpointsAreCountedNotSilent) {
  const std::vector<osn::Event> log = build_log(16);
  const std::string dir = fresh_dir("ckpt_susp");
  io::FaultyVfs v;
  ServiceOptions o = make_options(dir, &v);
  o.checkpoint_every = 0;  // explicit checkpoints only
  ServiceSupervisor s(o);
  s.start();
  io::FaultConfig cfg;
  cfg.byte_budget = 0;
  v.configure(cfg);
  s.offer(log[0], 0);
  s.commit();
  ASSERT_TRUE(s.storage_degraded());

  const std::string ckpt_dir = dir + "/ckpt";
  ASSERT_TRUE(list_checkpoints(ckpt_dir).empty());
  for (int i = 0; i < 3; ++i) s.checkpoint_now();
  EXPECT_EQ(s.storage_checkpoints_suspended(), 3u);
  // Suspension never touches the generation directory.
  EXPECT_TRUE(list_checkpoints(ckpt_dir).empty());

  v.clear_faults();
  ASSERT_TRUE(s.retry_storage_now());
  s.checkpoint_now();
  EXPECT_EQ(s.storage_checkpoints_suspended(), 3u);
  EXPECT_EQ(list_checkpoints(ckpt_dir).size(), 1u);
}

TEST_F(StorageDegraded, FlushWhileDegradedForcesRetryAndThrowsTyped) {
  const std::vector<osn::Event> log = build_log(16);
  const std::string dir = fresh_dir("flush_deg");
  io::FaultyVfs v;
  ServiceSupervisor s(make_options(dir, &v));
  s.start();
  io::FaultConfig cfg;
  cfg.byte_budget = 0;
  v.configure(cfg);
  s.offer(log[0], 0);
  s.commit();
  ASSERT_TRUE(s.storage_degraded());

  // End-of-stream is the loud boundary: records may not stay buffered
  // behind a disk that still refuses writes.
  try {
    s.flush();
    FAIL() << "expected VfsError from flush";
  } catch (const io::VfsError& e) {
    EXPECT_EQ(e.kind(), io::VfsFaultKind::kNoSpace);
  }
  EXPECT_TRUE(s.storage_degraded());

  v.clear_faults();
  EXPECT_NO_THROW(s.flush());
  EXPECT_FALSE(s.storage_degraded());
  EXPECT_EQ(s.storage_buffered(), 0u);
}

TEST_F(StorageDegraded, PowerLossNeverDegrades) {
  const std::vector<osn::Event> log = build_log(16);
  const std::string dir = fresh_dir("powerloss");
  io::FaultyVfs v;
  ServiceSupervisor s(make_options(dir, &v));
  s.start();
  io::FaultConfig cfg;
  cfg.cut_at_op = v.ops();  // the very next mutating op: the commit's write
  v.configure(cfg);
  s.offer(log[0], 0);  // issues no storage op
  try {
    s.commit();
    FAIL() << "expected kPowerLoss";
  } catch (const io::VfsError& e) {
    EXPECT_EQ(e.kind(), io::VfsFaultKind::kPowerLoss);
  }
  // The machine is gone: no graceful tier for that, the crash/recovery
  // path owns it.
  EXPECT_FALSE(s.storage_degraded());
  EXPECT_TRUE(v.dead());
}

// ---- An overflow that unwinds a router batch ------------------------

/// Three shards on fsync-free devices; shard 1 on `shard1` when given.
ShardRouterOptions unwind_options(const std::string& dir,
                                  io::FaultyVfs* shard1) {
  ShardRouterOptions o;
  o.shards = 3;
  o.shard = make_options(dir, &crashtest::sweep_vfs());
  o.shard.checkpoint_every = 1024;
  o.shard_vfs = [shard1](std::uint32_t i) -> io::Vfs* {
    if (i == 1 && shard1 != nullptr) return shard1;
    return &crashtest::sweep_vfs();
  };
  return o;
}

std::vector<std::string> per_shard_stats(const ShardRouter& router) {
  std::vector<std::string> out;
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    out.push_back(router.shard(i).stats_json());
  }
  return out;
}

/// Shard 1's disk is full from the first offer, so its buffer fills and
/// StorageBufferOverflow unwinds an offer_batch after some of the
/// batch's copies were delivered and before any shard committed. The
/// delivered copies stay buffered; once the disk heals, the next
/// offer_batch's commits flush shard 1's backlog, re-offering from the
/// interrupted seq suppresses exactly the copies already delivered,
/// and the state on disk ends identical to a run that never faulted.
TEST_F(StorageDegraded, OverflowMidBatchKeepsIdentitiesAndResumes) {
  constexpr std::uint64_t kBatch = 256;
  const std::vector<osn::Event> log = build_log(8192);
  const std::span<const osn::Event> all(log);
  // Offers [from, to) in batches on the fixed kBatch grid, pumping after
  // each, so an interrupted batch's remainder re-joins the same grid.
  const auto drive = [&](ShardRouter& router, std::uint64_t from,
                         std::uint64_t to) {
    while (from < to) {
      const std::uint64_t end = std::min(to, (from / kBatch + 1) * kBatch);
      router.offer_batch(all.subspan(from, end - from), from);
      router.pump();
      from = end;
    }
  };
  const auto restarted_stats = [&](const std::string& dir) {
    ShardRouter router(unwind_options(dir, nullptr));
    router.start();
    EXPECT_TRUE(router.accounting_ok());
    return per_shard_stats(router);
  };

  const std::string clean_dir = fresh_dir("unwind_clean");
  std::vector<std::string> clean_live;
  core::FlagBatch clean_flags;
  {
    ShardRouter router(unwind_options(clean_dir, nullptr));
    router.start();
    drive(router, 0, log.size());
    router.flush();
    clean_live = per_shard_stats(router);
    clean_flags = router.take_flagged();
  }
  ASSERT_FALSE(clean_flags.empty());

  const std::string dir = fresh_dir("unwind");
  io::FaultyVfs v1(&crashtest::sweep_vfs());
  auto owned = std::make_unique<ShardRouter>(unwind_options(dir, &v1));
  ShardRouter& router = *owned;
  router.start();
  io::FaultConfig cfg;
  cfg.fail_from = v1.ops();
  cfg.fail_count = io::FaultConfig::kNever;
  cfg.fail_kind = io::VfsFaultKind::kNoSpace;
  v1.configure(cfg);

  std::uint64_t interrupted = log.size();  // seq whose offer overflowed
  std::uint64_t delivered_before = 0;
  for (std::uint64_t base = 0; interrupted == log.size() && base < log.size();
       base += kBatch) {
    delivered_before = router.copies_delivered();
    const std::uint64_t offers_before = router.offers();
    try {
      router.offer_batch(all.subspan(base, kBatch), base);
      router.pump();
    } catch (const StorageBufferOverflow& e) {
      EXPECT_EQ(e.shard(), 1u);
      EXPECT_EQ(e.buffered(), kStorageBufferRecords);
      // offers() already counts the event whose shard-1 copy overflowed.
      interrupted = base + (router.offers() - offers_before) - 1;
    }
  }
  ASSERT_LT(interrupted, log.size()) << "shard 1's buffer never filled";
  ASSERT_GT(router.copies_delivered(), delivered_before)
      << "the overflow did not land in the middle of a batch";

  // Identities hold across the unwind: the overflowed copy was never
  // counted, and nothing was committed.
  EXPECT_TRUE(router.accounting_ok());
  EXPECT_EQ(router.copies_routed(),
            router.copies_delivered() + router.copies_suppressed());
  EXPECT_TRUE(router.shard(1).storage_degraded());
  EXPECT_EQ(router.shard(1).storage_buffered(), kStorageBufferRecords);
  EXPECT_LE(router.next_seq(), interrupted);

  // The disk heals. The next offer_batch's commits are shard 1's retry
  // and flush its backlog (an empty batch only commits).
  v1.clear_faults();
  router.offer_batch({}, interrupted);
  EXPECT_FALSE(router.shard(1).storage_degraded());
  EXPECT_EQ(router.shard(1).storage_buffered(), 0u);

  // Re-offering from the interrupted seq: only the copies delivered
  // before the overflow (to shards ordered before shard 1) are
  // suppressed; shard 1 and later get theirs now.
  const RoutePlan plan = plan_route(log[interrupted], 3);
  const std::uint32_t already =
      plan.broadcast || plan.target[0] < 1 ? 1u : 0u;
  const std::uint64_t suppressed_before = router.copies_suppressed();
  const std::uint64_t grid_end =
      std::min<std::uint64_t>(log.size(), (interrupted / kBatch + 1) * kBatch);
  const RouteResult again = router.offer_batch(
      all.subspan(interrupted, grid_end - interrupted), interrupted);
  router.pump();
  EXPECT_EQ(again.suppressed, already);
  EXPECT_EQ(router.copies_suppressed() - suppressed_before, already);
  EXPECT_TRUE(router.accounting_ok());

  drive(router, grid_end, log.size());
  router.flush();
  EXPECT_TRUE(router.accounting_ok());
  EXPECT_EQ(per_shard_stats(router), clean_live);
  expect_flags_equal(router.take_flagged(), clean_flags);
  owned.reset();

  // A restart from disk agrees shard by shard with the clean run.
  const std::vector<std::string> recovered = restarted_stats(dir);
  EXPECT_EQ(recovered, restarted_stats(clean_dir));
  EXPECT_EQ(recovered, clean_live);
}

}  // namespace
}  // namespace sybil::service
