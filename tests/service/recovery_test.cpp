// Recovery-determinism suite (docs/ROBUSTNESS.md §Recovery model):
//
//   * a process crash at EVERY storage op of a 500-account ground-
//     truth run (io::FaultyVfs), then recovery — final flag verdicts
//     and the accounting JSON are byte-identical to the uninterrupted
//     run, including the shed breakdown (the run deliberately overloads
//     so tier transitions and shedding are part of what must replay
//     exactly), and the recovered resume points cover every record
//     index of the log;
//   * the same, pinned across SYBIL_THREADS=1 and 8;
//   * a corrupt newest checkpoint falls back to the previous
//     generation with a typed RecoveryReport — never a crash, never
//     silent loss;
//   * recovery with no checkpoint at all (cold start) rebuilds from
//     the full WAL;
//   * the unpumped queue and the detector's reorder buffer, which
//     checkpoints do not store, come back from the WAL — shed records
//     between the queue's entries stay out — from every kind of
//     generation on a disordered stream, at SYBIL_THREADS=1 and 8;
//     a checkpoint whose queue outruns its WAL records is refused;
//   * a WAL that no longer reaches the replay start (a lost segment, or
//     a cold start over a pruned log) is refused typed, never resumed
//     on part of the history; WAL retention keeps what every retained
//     generation replays, including ones an earlier process wrote;
//   * checkpoint retention deletes exactly the pruned generations, and
//     through the service's vfs;
//   * state-file names past 2^64 - 1 are skipped, never thrown on;
//   * the size-triggered cadence: small state cuts at every grid point,
//     large state skips grid points by the rule; a restart cuts the
//     uninterrupted run's later generations; the replayed suffix stays
//     within the newest generation's state bound;
//   * the recovered queue is a WAL range pump() reads back: pumping it
//     in any step size equals one pump, a checkpoint cut with it half
//     drained recovers identically, damage to it since start() throws
//     typed from pump() with the accounting intact, and a log with a
//     hole above the position is refused at start().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "faults/process_faults.h"
#include "io/error.h"
#include "io/faulty_vfs.h"
#include "osn/network.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "stats/rng.h"
#include "support/crash_vfs.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

// Every run writes through the sweep vfs, which skips the fsyncs
// themselves: checkpoint fsync and directory fsync stay storage ops a
// crash can land on, at no cost.
using ServiceRecovery = ::testing::Test;

std::string fresh_dir(const std::string& name) {
  return testsupport::fresh_temp_path("sybil_svc_", name);
}

/// A 500-account logged network exercising every event type: seeded
/// friendships, background chatter, three burst senders hot enough to
/// cross the (relaxed, see make_options) threshold rule even while the
/// overloaded service sheds part of the stream, mixed accept/reject,
/// and mid-stream bans.
std::vector<osn::Event> build_log(std::uint64_t seed) {
  osn::Network net(/*keep_event_log=*/true);
  stats::Rng rng(seed);
  constexpr int kAccounts = 500;
  for (int i = 0; i < kAccounts; ++i) net.add_account(osn::Account{});
  for (int i = 0; i < 60; ++i) {
    net.add_friendship(
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        -1.0 * static_cast<double>(i));
  }
  for (double t = 0.0; t < 4.0; t += 1.0) {
    for (int k = 0; k < 15; ++k) {  // background chatter
      net.send_request(
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
          t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
    }
    for (int s = 0; s < 3; ++s) {  // Sybil bursts
      for (int k = 0; k < 25; ++k) {
        net.send_request(
            static_cast<osn::NodeId>(10 + s),
            static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
            t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
      }
    }
    net.process_responses(t + 1.0, [&](osn::NodeId, osn::NodeId,
                                       std::uint8_t) {
      return rng.bernoulli(0.4);
    });
    if (t == 2.0) {
      net.ban(3, t);
      net.ban(7, t);
    }
  }
  net.process_responses(1e9, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
    return rng.bernoulli(0.4);
  });
  return net.log().events();
}

ServiceOptions make_options(const std::string& dir,
                            io::Vfs* vfs = &crashtest::sweep_vfs()) {
  ServiceOptions o;
  o.dir = dir;
  // Per-record flush: every record reaches the vfs as it is appended,
  // so the crash sweep can stop the log after any record (or inside
  // one). The sweep vfs makes the fsyncs free.
  o.wal_fsync = WalFsync::kEveryAppend;
  o.wal_segment_records = 48;
  o.checkpoint_every = 256;
  o.checkpoint_retain = 2;
  o.vfs = vfs;
  // Watermarks the driver's pump cadence actually crosses, so tier
  // transitions and shedding are inside the determinism property.
  o.detector.overload.queue_capacity = 260;
  o.detector.overload.shed_watermark = 120;
  o.detector.overload.sweep_only_watermark = 200;
  o.detector.overload.resume_watermark = 60;
  o.detector.ingest.watermark_hours = 500.0;  // absorb log inversions
  // Relaxed rule so the burst senders flag even though shedding thins
  // their applied event stream.
  o.detector.rule.invite_rate_min = 4.0;
  o.detector.rule.min_requests = 5;
  return o;
}

/// Index-aligned driver: offers log[offer_from..N) with a fixed pump
/// cadence keyed to the event index. Alignment by index is what makes
/// queue depth — and therefore every admission decision — a pure
/// function of stream position.
///
/// After a crash, offers resume at the recovery report's next_index
/// (everything below it is already durable), but the pump schedule
/// must re-run from the recovered *checkpoint* position: pumps between
/// the checkpoint and the crash only touched in-memory state that died
/// with the process, so a cursor-replaying upstream re-applies them.
/// Re-pumping drains the identical FIFO prefix the lost pumps drained
/// (the replayed backlog is a superset of the live queue at each
/// schedule point), which re-aligns queue depth with the uninterrupted
/// run before the first post-crash admission decision.
void drive_until(ServiceSupervisor& s, const std::vector<osn::Event>& log,
                 std::uint64_t offer_from, std::uint64_t pump_from,
                 std::uint64_t until) {
  for (std::uint64_t i = std::min(offer_from, pump_from); i < until; ++i) {
    if (i >= offer_from) {
      s.offer(log[i], i);
      s.commit();
    }
    if (i >= pump_from && i % 7 == 6) s.pump(3);
  }
}

void drive(ServiceSupervisor& s, const std::vector<osn::Event>& log,
           std::uint64_t offer_from, std::uint64_t pump_from = 0) {
  drive_until(s, log, offer_from, pump_from, log.size());
  s.flush();
}

struct RunResult {
  std::string stats;
  core::FlagBatch flags;
  std::uint64_t ops = 0;         // storage ops of the uninterrupted run
  std::uint64_t next_index = 0;  // where a crashed run's offers resumed
  std::uint64_t shed_total = 0;
  std::uint64_t tier_transitions = 0;
};

/// The uninterrupted reference run, over a fault-free FaultyVfs that
/// counts the storage ops the crash sweep iterates.
RunResult run_baseline(const std::vector<osn::Event>& log,
                       const std::string& dir) {
  RunResult result;
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  ServiceSupervisor s(make_options(dir, &vfs));
  const RecoveryReport report = s.start();
  EXPECT_TRUE(report.cold_start);
  drive(s, log, 0);
  EXPECT_TRUE(s.accounting_ok());
  result.ops = vfs.ops();
  result.stats = s.stats_json();
  result.flags = s.take_flagged();
  result.shed_total = s.shed_total();
  result.tier_transitions = s.tier_transitions();
  return result;
}

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
    ASSERT_DOUBLE_EQ(a[i].features.clustering_coefficient,
                     b[i].features.clustering_coefficient)
        << i;
  }
}

/// Runs the log until the process crashes at storage op k, recovers in
/// a fresh supervisor, finishes the stream, and returns the final state.
RunResult crash_recover_run(const std::vector<osn::Event>& log,
                            const std::string& dir, std::uint64_t k) {
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  crashtest::arm_crash(vfs, k);
  bool crashed = false;
  {
    ServiceSupervisor victim(make_options(dir, &vfs));
    try {
      victim.start();
      drive(victim, log, 0);
    } catch (const io::VfsError& e) {
      EXPECT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
      crashed = true;
    }
  }  // process death: the dead vfs drops what the victim still buffered
  EXPECT_TRUE(crashed) << "op " << k << " never reached";

  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
  RunResult result;
  result.stats = recovered.stats_json();
  result.flags = recovered.take_flagged();
  result.next_index = report.next_index;
  return result;
}

TEST_F(ServiceRecovery, ByteIdenticalAtEveryStorageOp) {
  const std::vector<osn::Event> log = build_log(7);
  ASSERT_GT(log.size(), 500u);
  const RunResult base = run_baseline(log, fresh_dir("base"));
  ASSERT_GT(base.ops, 2 * log.size());  // a write and an fsync per record
  ASSERT_FALSE(base.flags.records.empty())
      << "the run must actually flag accounts for the comparison to bite";
  ASSERT_GT(base.shed_total, 0u) << "overload must engage";
  ASSERT_GT(base.tier_transitions, 0u);

  const std::string dir = fresh_dir("sweep");
  std::vector<bool> resumed_at(log.size() + 1, false);
  for (std::uint64_t k = 0; k < base.ops; ++k) {
    fs::remove_all(dir);
    const RunResult run = crash_recover_run(log, dir, k);
    ASSERT_EQ(run.stats, base.stats) << "crash at op " << k;
    expect_flags_equal(run.flags, base.flags);
    if (::testing::Test::HasFailure()) FAIL() << "crash at op " << k;
    ASSERT_LE(run.next_index, log.size());
    resumed_at[run.next_index] = true;
  }
  // A crash can stop the durable log after any record, torn or not.
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_TRUE(resumed_at[i]) << "no crash point resumed at record " << i;
  }
}

/// The recovery path is thread-count-invariant: a mid-run crash
/// recovered at SYBIL_THREADS=1 and at 8 lands on the same bytes.
TEST_F(ServiceRecovery, ByteIdenticalAcrossThreadCounts) {
  const std::vector<osn::Event> log = build_log(11);
  const RunResult base = run_baseline(log, fresh_dir("thr_base"));
  const std::uint64_t mid = base.ops / 2;

  core::set_thread_count(1);
  const RunResult one = crash_recover_run(log, fresh_dir("thr1"), mid);
  core::set_thread_count(8);
  const RunResult eight = crash_recover_run(log, fresh_dir("thr8"), mid);
  core::set_thread_count(0);  // back to automatic

  EXPECT_EQ(one.stats, base.stats);
  EXPECT_EQ(eight.stats, base.stats);
  expect_flags_equal(one.flags, base.flags);
  expect_flags_equal(eight.flags, base.flags);
}

/// build_log(seed) in time order, then every time pulled back by up to
/// `jitter` hours: WAL order is no longer time order, so a reorder
/// buffer holds records out of WAL order, yet no record falls behind a
/// watermark of `jitter` hours.
std::vector<osn::Event> disordered_log(std::uint64_t seed, double jitter) {
  std::vector<osn::Event> log = build_log(seed);
  std::stable_sort(log.begin(), log.end(),
                   [](const osn::Event& a, const osn::Event& b) {
                     return a.time < b.time;
                   });
  stats::Rng rng(seed + 1);
  for (osn::Event& e : log) e.time -= rng.uniform(0.0, jitter);
  return log;
}

// The disordered script's generations: a mid-stream checkpoint whose
// oldest buffered record lies far below the queue head, a flush(true)
// with nothing in flight, and a checkpoint four offers later that holds
// only a queue (the next pump is at 6 mod 7).
constexpr std::uint64_t kMidCheckpoint = 300;
constexpr std::uint64_t kFlushAt = 420;
constexpr std::uint64_t kQueueCheckpoint = kFlushAt + 4;
constexpr double kJitterHours = 3.0;

ServiceOptions disordered_options(const std::string& dir) {
  ServiceOptions o = make_options(dir);
  o.checkpoint_every = 0;  // the script's generations only
  o.detector.ingest.watermark_hours = kJitterHours;
  return o;
}

/// drive_until with the script's generations.
void drive_disordered(ServiceSupervisor& s, const std::vector<osn::Event>& log,
                      std::uint64_t offer_from, std::uint64_t pump_from,
                      std::uint64_t until) {
  for (std::uint64_t i = std::min(offer_from, pump_from); i < until; ++i) {
    if (i >= offer_from) {
      s.offer(log[i], i);
      s.commit();
    }
    if (i < pump_from) continue;
    if (i % 7 == 6) s.pump(3);
    if (i == kMidCheckpoint || i == kQueueCheckpoint) s.checkpoint_now();
    if (i == kFlushAt) s.flush();
  }
}

// Recovered-vs-uninterrupted on a disordered stream, from each kind of
// generation: the recovered detector re-buffers exactly the in-flight
// records the checkpointed one held, and the run continues onto the
// uninterrupted bytes, at SYBIL_THREADS 1 and 8.
TEST_F(ServiceRecovery, DisorderedStreamRecoversFromEveryKindOfGeneration) {
  const std::vector<osn::Event> log = disordered_log(31, kJitterHours);
  ASSERT_GT(log.size(), kQueueCheckpoint + 100);
  // Crash points, one past each generation.
  const std::uint64_t crashes[] = {kMidCheckpoint + 60, kFlushAt + 2,
                                   kQueueCheckpoint + 30};

  // The uninterrupted run, with the detector's buffer at each
  // generation and the whole accounting at each crash point.
  std::vector<std::uint64_t> buffered_at_generation;
  std::vector<std::string> stats_at_crash;
  std::vector<std::uint64_t> buffered_at_crash;
  RunResult base;
  {
    const std::string dir = fresh_dir("disorder_base");
    ServiceSupervisor s(disordered_options(dir));
    s.start();
    std::size_t next_crash = 0;
    for (std::uint64_t i = 0; i < log.size(); ++i) {
      drive_disordered(s, log, i, i, i + 1);
      if (i == kMidCheckpoint || i == kFlushAt || i == kQueueCheckpoint) {
        buffered_at_generation.push_back(s.detector().buffered());
        const ServiceCheckpointState ckpt = load_service_checkpoint(
            list_checkpoints(dir + "/ckpt").back().second);
        ASSERT_EQ(ckpt.wal_position, i + 1);
        if (i == kMidCheckpoint) {
          // Many pumped records lie between the replay start and the
          // queue head: the admitted records in range, less the queue.
          EXPECT_EQ(ckpt.replay_from, s.detector().oldest_buffered_seq());
          WalScanReport scan;
          std::uint64_t admitted = 0;
          for (const WalRecord& r :
               scan_wal(dir + "/wal", ckpt.replay_from, scan, 0)) {
            if (r.index < ckpt.wal_position && !r.shed()) ++admitted;
          }
          EXPECT_GE(admitted - s.queue_depth(), 50u)
              << admitted << " admitted, " << s.queue_depth() << " queued";
        } else if (i == kFlushAt) {
          EXPECT_EQ(s.detector().buffered(), 0u);
          EXPECT_EQ(s.queue_depth(), 0u);
          EXPECT_EQ(ckpt.replay_from, ckpt.wal_position);
        } else {
          EXPECT_EQ(s.detector().buffered(), 0u);
          EXPECT_EQ(s.queue_depth(), 4u);
          EXPECT_EQ(ckpt.replay_from, ckpt.wal_position - 4);
        }
      }
      if (next_crash < std::size(crashes) && i == crashes[next_crash]) {
        stats_at_crash.push_back(s.stats_json());
        buffered_at_crash.push_back(s.detector().buffered());
        ++next_crash;
      }
    }
    s.flush();
    base.stats = s.stats_json();
    base.flags = s.take_flagged();
  }
  ASSERT_GT(buffered_at_generation[0], 0u);
  ASSERT_FALSE(base.flags.records.empty());

  for (const int threads : {1, 8}) {
    core::set_thread_count(threads);
    for (std::size_t c = 0; c < std::size(crashes); ++c) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", crash after " +
                   std::to_string(crashes[c]));
      const std::string dir = fresh_dir("disorder");
      {
        ServiceSupervisor victim(disordered_options(dir));
        victim.start();
        drive_disordered(victim, log, 0, 0, crashes[c] + 1);
      }  // process death: no flush, no final checkpoint
      ServiceSupervisor recovered(disordered_options(dir));
      const RecoveryReport report = recovered.start();
      const std::uint64_t generations[] = {kMidCheckpoint, kFlushAt,
                                           kQueueCheckpoint};
      ASSERT_EQ(report.checkpoint_position, generations[c] + 1);
      EXPECT_EQ(recovered.detector().buffered(), buffered_at_generation[c]);
      EXPECT_TRUE(recovered.accounting_ok());
      drive_disordered(recovered, log, report.next_index,
                       report.checkpoint_position, crashes[c] + 1);
      EXPECT_EQ(recovered.detector().buffered(), buffered_at_crash[c]);
      EXPECT_EQ(recovered.stats_json(), stats_at_crash[c]);
      drive_disordered(recovered, log, crashes[c] + 1, crashes[c] + 1,
                       log.size());
      recovered.flush();
      EXPECT_EQ(recovered.stats_json(), base.stats);
      expect_flags_equal(recovered.take_flagged(), base.flags);
    }
  }
  core::set_thread_count(0);  // back to automatic
}

TEST_F(ServiceRecovery, CorruptNewestCheckpointFallsBackAGeneration) {
  const std::vector<osn::Event> log = build_log(13);
  const RunResult base = run_baseline(log, fresh_dir("corrupt_base"));

  const std::string dir = fresh_dir("corrupt");
  {
    ServiceSupervisor s(make_options(dir));
    s.start();
    drive(s, log, 0);
  }
  const auto generations = list_checkpoints(dir + "/ckpt");
  ASSERT_EQ(generations.size(), 2u);  // retention holds
  faults::tear_file_tail(generations.back().second, /*seed=*/99);

  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.generations_discarded, 1u);
  EXPECT_EQ(report.checkpoint_file, generations.front().second);
  EXPECT_EQ(report.checkpoint_position, generations.front().first);
  EXPECT_GT(report.records_replayed, 0u);
  EXPECT_TRUE(recovered.accounting_ok());
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
}

TEST_F(ServiceRecovery, ColdStartReplaysTheFullWal) {
  const std::vector<osn::Event> log = build_log(17);
  const RunResult base = run_baseline(log, fresh_dir("cold_base"));

  const std::string dir = fresh_dir("cold");
  {
    ServiceOptions opts = make_options(dir);
    opts.checkpoint_every = 0;  // never checkpoint...
    ServiceSupervisor s(opts);
    s.start();
    for (std::uint64_t i = 0; i < log.size(); ++i) {
      s.offer(log[i], i);
      s.commit();
      if (i % 7 == 6) s.pump(3);
    }
    // ...and die without flush(): everything must come back from WAL.
  }
  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_TRUE(report.cold_start);
  EXPECT_EQ(report.records_replayed, log.size());
  EXPECT_EQ(report.next_index, log.size());
  EXPECT_TRUE(recovered.accounting_ok());
  // offer_from == N: only the pump schedule re-runs over the backlog.
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
}

// Retention keeps the WAL every retained generation replays, including
// generations an earlier process wrote, whose replay starts this one
// does not know: it keeps the whole WAL until they are pruned. Here
// the newest two of three retained generations are corrupt, and the
// oldest — written before the restart — must still find its records.
TEST_F(ServiceRecovery, FallbackPastARestartFindsItsReplayStart) {
  const std::vector<osn::Event> log = build_log(29);
  ASSERT_GT(log.size(), 480u);
  const RunResult base = run_baseline(log, fresh_dir("retain_base"));

  const std::string dir = fresh_dir("retain");
  ServiceOptions opts = make_options(dir);
  opts.checkpoint_every = 64;
  opts.checkpoint_retain = 3;
  {
    ServiceSupervisor s(opts);
    s.start();
    drive_until(s, log, 0, 0, 400);  // generations 256, 320, 384 remain
  }
  {
    ServiceSupervisor s(opts);
    const RecoveryReport report = s.start();
    ASSERT_EQ(report.checkpoint_position, 384u);
    drive_until(s, log, report.next_index, report.checkpoint_position, 460);
  }
  const auto generations = list_checkpoints(dir + "/ckpt");
  ASSERT_EQ(generations.size(), 3u);
  ASSERT_EQ(generations.front().first, 320u);
  faults::tear_file_tail(generations[1].second, /*seed=*/5);
  faults::tear_file_tail(generations[2].second, /*seed=*/6);

  ServiceSupervisor recovered(opts);
  const RecoveryReport report = recovered.start();
  EXPECT_EQ(report.generations_discarded, 2u);
  EXPECT_EQ(report.checkpoint_position, 320u);
  EXPECT_TRUE(recovered.accounting_ok());
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
}

void expect_start_refused(ServiceSupervisor& s) {
  try {
    s.start();
    ADD_FAILURE() << "started without the records its replay start needs";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kTruncated) << e.what();
  }
}

// A cold start needs the WAL from record 0. Once checkpoints have let
// the WAL be pruned, deleting them must not leave a service that
// silently rebuilds from the surviving suffix. The 500 h watermark
// keeps every record in flight until the final flush, so a second
// flushed generation is what lets the WAL be pruned.
TEST_F(ServiceRecovery, ColdStartOverPrunedWalIsRefused) {
  const std::vector<osn::Event> log = build_log(23);
  const std::string dir = fresh_dir("pruned_cold");
  {
    ServiceSupervisor s(make_options(dir));
    s.start();
    drive(s, log, 0);
    s.offer(log.back(), log.size());
    s.commit();
    s.flush();
  }
  ASSERT_FALSE(fs::exists(dir + "/wal/wal-00000000000000000000.seg"));
  fs::remove_all(dir + "/ckpt");
  ServiceSupervisor recovered(make_options(dir));
  expect_start_refused(recovered);
}

/// Tiny overload watermarks (resume 2 < shed 4 <= sweep-only 6 <=
/// capacity 8, as in overload_test.cpp), two-record WAL segments and
/// explicit checkpoints only.
ServiceOptions tiny_options(const std::string& dir) {
  ServiceOptions o = make_options(dir);
  o.wal_segment_records = 2;
  o.checkpoint_every = 0;
  o.detector.overload.queue_capacity = 8;
  o.detector.overload.shed_watermark = 4;
  o.detector.overload.sweep_only_watermark = 6;
  o.detector.overload.resume_watermark = 2;
  o.detector.rule.invite_rate_min = 2.0;
  o.detector.rule.min_requests = 3;
  return o;
}

/// Account 1's request burst, with the queue driven through the shed
/// tiers: the checkpoint (WAL position 10) is taken while the queue
/// holds admitted records 2, 3, 4, 5, 7 and 9, with records 6 and 8
/// shed between them, and records 0 and 1, pumped, still sit in the
/// detector's reorder buffer; records 10 (shed) and 11 (a ban) follow.
void offer_script(ServiceSupervisor& s) {
  double t = 0.0;
  std::uint64_t seq = 0;
  const auto offer = [&](osn::EventType type, graph::NodeId a,
                         graph::NodeId b) {
    s.offer({type, a, b, t += 0.01}, seq++);
    s.commit();
  };
  const auto request = [&](graph::NodeId to) {
    offer(osn::EventType::kRequestSent, 1, to);
  };
  const auto created = [&](graph::NodeId who) {
    offer(osn::EventType::kAccountCreated, who, who);
  };
  for (graph::NodeId to = 10; to < 13; ++to) request(to);
  s.pump(2);  // the queue head is now record 2
  for (graph::NodeId to = 13; to < 16; ++to) request(to);
  created(30);  // depth 4: shed-low-priority tier, shed
  request(16);
  created(31);  // shed
  request(17);
  s.checkpoint_now();
  request(18);  // depth 6: sweep-only tier, shed
  offer(osn::EventType::kAccountBanned, 40, 40);
}

TEST_F(ServiceRecovery, QueueAmongShedRecordsComesBackFromTheWal) {
  RunResult base;
  {
    ServiceSupervisor s(tiny_options(fresh_dir("requeue_base")));
    s.start();
    offer_script(s);
    EXPECT_EQ(s.counters().shed_low_priority, 2u);
    EXPECT_EQ(s.counters().shed_sweep_only, 1u);
    EXPECT_EQ(s.queue_depth(), 7u);
    s.flush();
    s.sweep_flags(1.0);
    base.stats = s.stats_json();
    base.flags = s.take_flagged();
  }
  ASSERT_FALSE(base.flags.records.empty());

  const std::string dir = fresh_dir("requeue");
  std::string live;
  {
    ServiceSupervisor s(tiny_options(dir));
    s.start();
    offer_script(s);
    live = s.stats_json();
  }  // crash: nothing pumped or flushed after the script
  const ServiceCheckpointState ckpt =
      load_service_checkpoint(list_checkpoints(dir + "/ckpt").back().second);
  EXPECT_EQ(ckpt.wal_position, 10u);
  EXPECT_EQ(ckpt.replay_from, 0u);  // the oldest buffered record

  ServiceSupervisor recovered(tiny_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.records_replayed, 2u);  // re-queued records not counted
  EXPECT_EQ(recovered.queue_depth(), 7u);
  EXPECT_EQ(recovered.detector().buffered(), 2u);
  EXPECT_EQ(recovered.stats_json(), live);
  EXPECT_TRUE(recovered.accounting_ok());
  recovered.flush();
  recovered.sweep_flags(1.0);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
}

// A checkpoint whose queue (admitted - pumped) needs more admitted
// records than the WAL holds below its position is refused typed.
TEST_F(ServiceRecovery, QueueLongerThanItsWalRecordsIsRefused) {
  const std::string dir = fresh_dir("queue_outruns");
  {
    ServiceSupervisor s(tiny_options(dir));
    s.start();
    offer_script(s);
  }
  const std::string path = list_checkpoints(dir + "/ckpt").back().second;
  ServiceCheckpointState ckpt = load_service_checkpoint(path);
  ckpt.counters.admitted += 3;  // a queue of 9; 8 admitted records below 10
  save_service_checkpoint(path, std::move(ckpt));
  ServiceSupervisor recovered(tiny_options(dir));
  try {
    recovered.start();
    ADD_FAILURE() << "started with a queue longer than its WAL records";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kFormatViolation) << e.what();
  }
}

// The script's checkpoint replays from record 0 with the WAL cut into
// two-record segments. Losing the segment that holds record 0, or one
// inside [0, 10), leaves a WAL that cannot rebuild the queue and the
// reorder buffer.
TEST_F(ServiceRecovery, WalMissingRecordsBelowThePositionIsRefused) {
  for (const std::uint64_t lost : {0u, 6u}) {
    SCOPED_TRACE("lost segment " + std::to_string(lost));
    const std::string dir = fresh_dir("lost_segment");
    {
      ServiceSupervisor s(tiny_options(dir));
      s.start();
      offer_script(s);
    }
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%020llu.seg",
                  static_cast<unsigned long long>(lost));
    ASSERT_TRUE(fs::remove(dir + "/wal/" + name));
    ServiceSupervisor recovered(tiny_options(dir));
    expect_start_refused(recovered);
  }
}

/// Forwards to the sweep vfs, logging the checkpoint generations it
/// commits (renames onto a .sybs name) and removes.
class CheckpointLogVfs final : public io::Vfs {
 public:
  std::vector<std::string> committed;
  std::vector<std::string> removed;

  std::unique_ptr<io::VfsFile> open(const std::string& path,
                                    io::VfsMode mode) override {
    return crashtest::sweep_vfs().open(path, mode);
  }
  void rename(const std::string& from, const std::string& to) override {
    crashtest::sweep_vfs().rename(from, to);
    if (is_generation(to)) committed.push_back(to);
  }
  bool remove(const std::string& path) noexcept override {
    if (is_generation(path)) removed.push_back(path);
    return crashtest::sweep_vfs().remove(path);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    crashtest::sweep_vfs().truncate(path, size);
  }
  void sync_parent_dir(const std::string& path) override {
    crashtest::sweep_vfs().sync_parent_dir(path);
  }

 private:
  static bool is_generation(const std::string& path) {
    return path.find("/ckpt/") != std::string::npos &&
           path.size() > 5 && path.compare(path.size() - 5, 5, ".sybs") == 0;
  }
};

TEST_F(ServiceRecovery, CheckpointPruningGoesThroughTheVfs) {
  const std::vector<osn::Event> log = build_log(19);
  const std::string dir = fresh_dir("prune_vfs");
  CheckpointLogVfs vfs;
  {
    ServiceSupervisor s(make_options(dir, &vfs));
    s.start();
    drive(s, log, 0);
  }
  const auto retained = list_checkpoints(dir + "/ckpt");
  ASSERT_EQ(retained.size(), 2u);
  ASSERT_GT(vfs.committed.size(), retained.size()) << "nothing was pruned";
  // Every generation but the retained newest two was removed, oldest
  // first, exactly once — and none of them survives on disk.
  const std::vector<std::string> pruned(
      vfs.committed.begin(), vfs.committed.end() - retained.size());
  EXPECT_EQ(vfs.removed, pruned);
  for (std::size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].second,
              vfs.committed[pruned.size() + i]);
  }
}

// A state root may hold names the service never writes. Twenty digits
// past 2^64 - 1 in a generation's or a segment's name are skipped like
// any other foreign name: start(), checkpoint pruning and WAL pruning
// all list them, and none of them throws.
TEST_F(ServiceRecovery, OverflowingStateFileNamesAreSkipped) {
  const std::vector<osn::Event> log = build_log(37);
  const RunResult base = run_baseline(log, fresh_dir("stray_base"));

  const std::string dir = fresh_dir("stray");
  const std::string stray_ckpt = dir + "/ckpt/ckpt-99999999999999999999.sybs";
  const std::string stray_wal = dir + "/wal/wal-99999999999999999999.seg";
  fs::create_directories(dir + "/ckpt");
  fs::create_directories(dir + "/wal");
  std::FILE* f = std::fopen(stray_ckpt.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  fs::copy_file(stray_ckpt, stray_wal);

  const std::uint64_t crash = log.size() / 2;
  {
    ServiceSupervisor s(make_options(dir));
    EXPECT_TRUE(s.start().cold_start);
    drive_until(s, log, 0, 0, crash);
  }
  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.generations_discarded, 0u);
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
  EXPECT_TRUE(fs::exists(stray_ckpt));
  EXPECT_TRUE(fs::exists(stray_wal));
  for (const auto& [position, path] : list_checkpoints(dir + "/ckpt")) {
    EXPECT_LE(position, log.size()) << path;
  }
}

// ---- Size-triggered cadence (ServiceOptions::checkpoint_every) ----

/// Stream-plus-defense bytes of the generation at `path`: the size
/// trigger's price of that generation.
std::uint64_t state_bytes(const std::string& path) {
  const ServiceCheckpointState state = load_service_checkpoint(path);
  return state.stream_state.size() + state.defense_state.size();
}

/// The first grid point past `position` where the trigger fires for a
/// generation of `bytes` state.
std::uint64_t next_cut(std::uint64_t position, std::uint64_t bytes,
                       std::uint64_t every) {
  std::uint64_t q = (position / every + 1) * every;
  while ((q - position) * kMinRecordBytes * kCheckpointLogShare < bytes) {
    q += every;
  }
  return q;
}

/// make_options with every generation kept. `watermark` sets how much
/// state the detector holds: at 500 h every event stays in flight, so a
/// generation stores almost nothing; at 0.25 h events are applied and
/// the state grows with the accounts seen.
ServiceOptions cadence_options(const std::string& dir, double watermark,
                               std::uint64_t every) {
  ServiceOptions o = make_options(dir);
  o.checkpoint_every = every;
  o.checkpoint_retain = 1000;
  o.detector.ingest.watermark_hours = watermark;
  return o;
}

/// The grid positions the run cut, each checked against the rule: the
/// next generation is the first grid point where the records since the
/// previous one, at kMinRecordBytes each, reach a fifth of its state.
std::vector<std::uint64_t> checked_cuts(const std::string& dir,
                                        std::uint64_t every) {
  std::vector<std::uint64_t> cuts;
  std::uint64_t position = 0;
  std::uint64_t bytes = 0;
  for (const auto& [p, path] : list_checkpoints(dir + "/ckpt")) {
    EXPECT_EQ(p, next_cut(position, bytes, every)) << "after " << position;
    cuts.push_back(p);
    position = p;
    bytes = state_bytes(path);
  }
  return cuts;
}

TEST_F(ServiceRecovery, SmallStateCutsEveryGridPointLargeStateSkips) {
  const std::vector<osn::Event> log = disordered_log(41, 0.0);
  constexpr std::uint64_t kEvery = 32;
  const std::uint64_t grid_points = log.size() / kEvery;

  const std::string small = fresh_dir("cadence_small");
  {
    ServiceSupervisor s(cadence_options(small, 500.0, kEvery));
    s.start();
    drive_until(s, log, 0, 0, log.size());
  }
  const std::vector<std::uint64_t> every_point = checked_cuts(small, kEvery);
  ASSERT_EQ(every_point.size(), grid_points);
  for (std::size_t i = 0; i < every_point.size(); ++i) {
    EXPECT_EQ(every_point[i], (i + 1) * kEvery);
  }

  const std::string large = fresh_dir("cadence_large");
  {
    ServiceSupervisor s(cadence_options(large, 0.25, kEvery));
    s.start();
    drive_until(s, log, 0, 0, log.size());
  }
  const std::vector<std::uint64_t> skipping = checked_cuts(large, kEvery);
  ASSERT_GE(skipping.size(), 2u);
  EXPECT_LT(skipping.size(), grid_points / 2);
  EXPECT_GT(skipping.back() - skipping[skipping.size() - 2], kEvery);
}

// A supervisor killed after generation g and restarted from it cuts its
// later generations at the same positions as the uninterrupted run, and
// ends on the same flags and accounting.
TEST_F(ServiceRecovery, RestartCutsTheSameGenerationsAsTheUninterruptedRun) {
  const std::vector<osn::Event> log = disordered_log(43, 0.0);
  constexpr std::uint64_t kEvery = 16;

  const std::string control_dir = fresh_dir("cadence_control");
  RunResult control;
  {
    ServiceSupervisor s(cadence_options(control_dir, 0.25, kEvery));
    s.start();
    drive(s, log, 0);
    control.stats = s.stats_json();
    control.flags = s.take_flagged();
  }
  const auto control_generations = list_checkpoints(control_dir + "/ckpt");
  ASSERT_GE(control_generations.size(), 4u);

  for (const std::size_t g : {std::size_t{1}, control_generations.size() / 2}) {
    const std::uint64_t position = control_generations[g].first;
    SCOPED_TRACE("killed after generation " + std::to_string(position));
    const std::string dir = fresh_dir("cadence_restart");
    {
      ServiceSupervisor victim(cadence_options(dir, 0.25, kEvery));
      victim.start();
      drive_until(victim, log, 0, 0, position + 3);
    }  // process death: no flush
    ServiceSupervisor recovered(cadence_options(dir, 0.25, kEvery));
    const RecoveryReport report = recovered.start();
    ASSERT_EQ(report.checkpoint_position, position);
    drive(recovered, log, report.next_index, report.checkpoint_position);
    EXPECT_EQ(recovered.stats_json(), control.stats);
    expect_flags_equal(recovered.take_flagged(), control.flags);
    const auto generations = list_checkpoints(dir + "/ckpt");
    ASSERT_EQ(generations.size(), control_generations.size());
    for (std::size_t i = 0; i < generations.size(); ++i) {
      EXPECT_EQ(generations[i].first, control_generations[i].first) << i;
    }
  }
}

// Whenever a run stops, the suffix a restart replays is bounded by the
// newest generation's state: state_bytes / (5 * 18) records, plus one
// grid step the next grid point may lie beyond that.
TEST_F(ServiceRecovery, ReplayedSuffixIsBoundedByTheNewestGenerationsState) {
  const std::vector<osn::Event> log = disordered_log(47, 0.0);
  constexpr std::uint64_t kEvery = 16;
  std::uint64_t longest = 0;
  for (std::uint64_t stop = 100; stop <= log.size(); stop += 53) {
    SCOPED_TRACE("stopped at " + std::to_string(stop));
    const std::string dir = fresh_dir("cadence_bound");
    {
      ServiceSupervisor s(cadence_options(dir, 0.25, kEvery));
      s.start();
      drive_until(s, log, 0, 0, stop);
    }
    ServiceSupervisor recovered(cadence_options(dir, 0.25, kEvery));
    const RecoveryReport report = recovered.start();
    ASSERT_FALSE(report.cold_start);
    const std::uint64_t bytes = state_bytes(report.checkpoint_file);
    EXPECT_LE(report.records_replayed,
              bytes / (kCheckpointLogShare * kMinRecordBytes) + kEvery);
    EXPECT_EQ(report.records_replayed, stop - report.checkpoint_position);
    longest = std::max(longest, report.records_replayed);
  }
  // The bound bites: the suffix outgrows the grid step.
  EXPECT_GT(longest, 4 * kEvery);
}


/// Copies a stopped run's state root, so each variant recovers from the
/// same bytes (a recovery writes to the root it runs on).
std::string copy_root(const std::string& from, const std::string& name) {
  const std::string to = fresh_dir(name);
  fs::copy(from, to, fs::copy_options::recursive);
  return to;
}

/// Runs the 500-account log to record `stop` and stops there, unflushed:
/// the newest generation holds a queue, the suffix behind it more
/// admitted records, and a restart reads all of them back through its
/// WAL cursor.
std::string stopped_root(const std::vector<osn::Event>& log,
                         const ServiceOptions& options, std::uint64_t stop) {
  ServiceSupervisor s(options);
  s.start();
  drive_until(s, log, 0, 0, stop);
  const ServiceCheckpointState ckpt = load_service_checkpoint(
      list_checkpoints(options.dir + "/ckpt").back().second);
  EXPECT_GT(ckpt.counters.admitted, ckpt.counters.pumped)
      << "the newest generation holds no queue";
  EXPECT_LT(ckpt.wal_position, stop) << "no suffix behind the generation";
  return options.dir;
}

// Pumping the recovered records in steps of 1, 7 or 4096 — across the
// checkpoint's queue, the replayed suffix and the live offers queued
// behind them — lands on the state one pump(0) does.
TEST_F(ServiceRecovery, PumpStepsAcrossTheCursorMatchOnePump) {
  const std::vector<osn::Event> log = build_log(7);
  constexpr std::uint64_t kStop = 300;
  constexpr std::uint64_t kLive = 40;
  const std::string root =
      stopped_root(log, make_options(fresh_dir("cursor_steps")), kStop);
  RunResult one;
  for (const std::size_t step : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE("step " + std::to_string(step));
    ServiceSupervisor s(make_options(
        copy_root(root, "cursor_steps_" + std::to_string(step))));
    const RecoveryReport report = s.start();
    ASSERT_EQ(report.next_index, kStop);
    // The stop left the service in its sweep-only tier, which sheds
    // all but bans: the live offers are bans, so they queue.
    const std::uint64_t recovered = s.queue_depth();
    for (std::uint64_t i = kStop; i < kStop + kLive; ++i) {
      const auto who = static_cast<graph::NodeId>(i - kStop + 400);
      s.offer({osn::EventType::kAccountBanned, who, who, log[i].time}, i);
      s.commit();
    }
    std::uint64_t depth = s.queue_depth();
    EXPECT_GT(depth, recovered);  // live offers queued behind the cursor
    while (depth > 0) {
      const std::size_t n = s.pump(step);
      EXPECT_EQ(n, step == 0 ? depth : std::min<std::uint64_t>(step, depth));
      depth -= n;
      ASSERT_EQ(s.queue_depth(), depth);
      ASSERT_TRUE(s.accounting_ok());
    }
    drive(s, log, kStop + kLive, kStop + kLive);
    const std::string stats = s.stats_json();
    const core::FlagBatch flags = s.take_flagged();
    if (step == 0) {
      one.stats = stats;
      one.flags = flags;
      ASSERT_FALSE(one.flags.records.empty());
      continue;
    }
    EXPECT_EQ(stats, one.stats);
    expect_flags_equal(flags, one.flags);
  }
}

// Two checkpoints cut while the cursor is half drained — the second
// prunes the WAL below its replay start, which the cursor's head sets —
// then a kill: the restart recovers exactly what the process that kept
// running holds.
TEST_F(ServiceRecovery, CheckpointWithTheCursorHalfDrainedRecoversIdentically) {
  const std::vector<osn::Event> log = build_log(7);
  constexpr std::uint64_t kStop = 700;
  constexpr std::uint64_t kLive = 8;
  const auto options = [](const std::string& dir) {
    ServiceOptions o = make_options(dir);
    // No reorder window: pumped events leave the detector's buffer at
    // once, so the queue head is the replay start, and with one
    // generation kept the second checkpoint prunes the WAL below it.
    o.detector.ingest.watermark_hours = 0.0;
    o.checkpoint_retain = 1;
    return o;
  };
  const std::string root =
      stopped_root(log, options(fresh_dir("cursor_ckpt")), kStop);
  const auto cut_two = [&log](ServiceSupervisor& s, const std::string& dir) {
    s.start();
    const std::uint64_t depth = s.queue_depth();
    ASSERT_GT(depth, 4u);
    s.pump(depth / 4);
    s.checkpoint_now();
    s.pump(depth / 4);
    for (std::uint64_t i = kStop; i < kStop + kLive; ++i) {
      s.offer(log[i], i);
      s.commit();
    }
    s.checkpoint_now();
    const ServiceCheckpointState newest = load_service_checkpoint(
        list_checkpoints(dir + "/ckpt").back().second);
    EXPECT_EQ(newest.counters.admitted - newest.counters.pumped,
              s.queue_depth());
  };
  RunResult kept;
  {
    const std::string dir = copy_root(root, "cursor_ckpt_kept");
    ServiceSupervisor s(options(dir));
    cut_two(s, dir);
    drive(s, log, kStop + kLive, kStop);
    kept.stats = s.stats_json();
    kept.flags = s.take_flagged();
  }
  {
    ServiceSupervisor s(options(root));
    cut_two(s, root);
    EXPECT_FALSE(fs::exists(root + "/wal/wal-00000000000000000000.seg"))
        << "the second checkpoint pruned nothing";
  }  // killed with the cursor half drained
  ServiceSupervisor recovered(options(root));
  const RecoveryReport report = recovered.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.next_index, kStop + kLive);
  EXPECT_TRUE(recovered.accounting_ok());
  drive(recovered, log, kStop + kLive, kStop);
  EXPECT_EQ(recovered.stats_json(), kept.stats);
  expect_flags_equal(recovered.take_flagged(), kept.flags);
}

// The script's recovered queue, records 2-5, 7, 9 and 11, is read back
// from two-record segments. Damage to the segment holding 8 and 9 after
// start() makes pump() throw typed once 2-7 are pumped, and again on a
// retry: nothing is skipped and the accounting identity holds.
TEST_F(ServiceRecovery, CursorDamagedAfterStartThrowsTypedFromPump) {
  const std::string segment = "/wal/wal-00000000000000000008.seg";
  const auto flip = [](const std::string& path, std::uint64_t at) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(at));
    const char c = static_cast<char>(f.get() ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(c);
  };
  struct Case {
    const char* what;
    std::function<void(const std::string&)> damage;
    io::SnapshotErrorCode code;
  };
  const std::vector<Case> cases = {
      {"frame byte flipped",
       [&](const std::string& path) { flip(path, 36 + 16 + 2); },
       io::SnapshotErrorCode::kChecksumMismatch},
      {"header byte flipped", [&](const std::string& path) { flip(path, 20); },
       io::SnapshotErrorCode::kChecksumMismatch},
      {"segment removed",
       [](const std::string& path) { ASSERT_TRUE(fs::remove(path)); },
       io::SnapshotErrorCode::kOpenFailed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string dir = fresh_dir("cursor_damaged");
    {
      ServiceSupervisor s(tiny_options(dir));
      s.start();
      offer_script(s);
    }
    ServiceSupervisor recovered(tiny_options(dir));
    recovered.start();
    ASSERT_EQ(recovered.queue_depth(), 7u);
    c.damage(dir + segment);
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        recovered.pump();
        ADD_FAILURE() << "pumped past a damaged segment";
      } catch (const io::SnapshotError& e) {
        EXPECT_EQ(e.code(), c.code) << e.what();
      }
      EXPECT_EQ(recovered.queue_depth(), 2u);  // records 9 and 11
      EXPECT_EQ(recovered.counters().pumped, 7u);  // 0-1 before, 2-7 now
      EXPECT_TRUE(recovered.accounting_ok());
    }
  }
}

// Records at and past the position must follow one another: a segment
// lost above it is a hole start() refuses, as it refuses one below.
TEST_F(ServiceRecovery, WalHoleAbovePositionIsRefused) {
  const std::string dir = fresh_dir("hole_above");
  {
    ServiceSupervisor s(tiny_options(dir));
    s.start();
    offer_script(s);
    for (std::uint64_t seq = 12; seq < 16; ++seq) {
      const auto who = static_cast<graph::NodeId>(50 + seq);
      s.offer({osn::EventType::kAccountBanned, who, who, 1.0}, seq);
      s.commit();
    }
  }
  ASSERT_TRUE(fs::remove(dir + "/wal/wal-00000000000000000012.seg"));
  ServiceSupervisor recovered(tiny_options(dir));
  expect_start_refused(recovered);
}

}  // namespace
}  // namespace sybil::service
