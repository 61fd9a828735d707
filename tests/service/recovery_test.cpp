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
//     the full WAL.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "faults/process_faults.h"
#include "io/faulty_vfs.h"
#include "osn/network.h"
#include "service/supervisor.h"
#include "stats/rng.h"
#include "support/crash_vfs.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

// Every run writes through the sweep vfs, which skips the fsyncs
// themselves: checkpoint fsync and directory fsync stay storage ops a
// crash can land on, at no cost.
using ServiceRecovery = ::testing::Test;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sybil_svc_" + name;
  fs::remove_all(dir);
  return dir;
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
void drive(ServiceSupervisor& s, const std::vector<osn::Event>& log,
           std::uint64_t offer_from, std::uint64_t pump_from = 0) {
  for (std::uint64_t i = std::min(offer_from, pump_from); i < log.size();
       ++i) {
    if (i >= offer_from) s.offer(log[i], i);
    if (i >= pump_from && i % 7 == 6) s.pump(3);
  }
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

}  // namespace
}  // namespace sybil::service
