// Process-crash reachability (docs/ROBUSTNESS.md §Crash-point
// injection): one small supervised service, a process crash at chosen
// io::FaultyVfs ops, and proof that those crashes land on every
// durability boundary the service has —
//
//   * inside a WAL frame write (a torn frame, dropped whole and healed
//     on recovery);
//   * after a per-record append;
//   * after a segment rotation (the new segment holds only its header);
//   * before a checkpoint rename (the new generation never appears);
//   * after the rename but before retention pruning;
//   * after a group commit.
//
// Every such crash recovers to the uninterrupted run's stats and flags,
// resumes exactly after the records the dead process had handed to the
// vfs, and keeps the accounting identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "io/faulty_vfs.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "service/workload.h"
#include "support/crash_vfs.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;
using crashtest::StorageOp;

class ProcessCrash : public ::testing::Test {
 protected:
  // Checkpoint fsync and directory fsync must be storage ops here: the
  // directory fsync after the rename is the op a crash lands on between
  // rename and prune. (The sweep vfs makes them free.)
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "1", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

constexpr std::uint64_t kSegmentHeaderBytes = 36;
constexpr std::uint64_t kBlock = 8;

std::string fresh_dir(const std::string& name) {
  return testsupport::fresh_temp_path("sybil_reach_", name);
}

ServiceOptions make_options(const std::string& dir, io::Vfs* vfs) {
  ServiceOptions o;
  o.dir = dir;
  o.vfs = vfs;
  o.wal_fsync = WalFsync::kEveryAppend;
  o.wal_segment_records = 20;
  o.checkpoint_every = 64;
  o.checkpoint_retain = 1;
  o.detector.rule.invite_rate_min = 4.0;
  o.detector.rule.outgoing_accept_max = 0.5;
  o.detector.rule.min_requests = 5;
  return o;
}

/// Op-log positions right after a durability step returned: the op a
/// crash "after" that step lands on.
struct Marks {
  std::set<std::size_t> after_append;
  std::set<std::size_t> after_commit;
};

/// Offers log[from..N) in blocks of kBlock keyed to the event index:
/// even blocks commit after every offer (a WAL flush each), odd blocks
/// once after the block (one group commit); pumps after every block,
/// then flushes.
void drive(ServiceSupervisor& s, const std::vector<osn::Event>& log,
           std::uint64_t from, const std::vector<StorageOp>* ops = nullptr,
           Marks* marks = nullptr) {
  for (std::uint64_t i = from; i < log.size();) {
    const std::uint64_t end =
        std::min<std::uint64_t>(log.size(), (i / kBlock + 1) * kBlock);
    const bool grouped = (i / kBlock) % 2 == 1;
    for (; i < end; ++i) {
      s.offer(log[i], i);
      if (grouped) continue;
      s.commit();
      if (ops != nullptr) marks->after_append.insert(ops->size());
    }
    if (grouped) {
      s.commit();
      if (ops != nullptr) marks->after_commit.insert(ops->size());
    }
    s.pump();
  }
  s.flush();
}

bool is_wal(const StorageOp& op) {
  return op.path.find("/wal/") != std::string::npos;
}
bool is_ckpt(const StorageOp& op) {
  return op.path.find("/ckpt/") != std::string::npos;
}
/// A write of WAL frames (a segment header is a write of its own).
bool is_frame_write(const StorageOp& op) {
  return op.kind == StorageOp::Kind::kWrite && is_wal(op) &&
         op.bytes != kSegmentHeaderBytes;
}

TEST_F(ProcessCrash, ReachesEveryFormerBoundary) {
  WorkloadOptions w;
  w.accounts = 48;
  w.events = 300;  // not a checkpoint multiple: flush adds a generation
  w.hours = 6.0;
  w.seed = 21;
  w.burst_senders = 2;
  w.burst_fraction = 0.3;
  const std::vector<osn::Event> log = synthetic_workload(w);

  // The uninterrupted run, logging every storage op in FaultyVfs order.
  // Crash runs reuse its directory, so logged paths name their files.
  const std::string dir = fresh_dir("run");
  std::vector<StorageOp> ops;
  Marks marks;
  std::string base_stats;
  core::FlagBatch base_flags;
  {
    crashtest::SweepVfs logged;
    logged.record(&ops);
    ServiceSupervisor s(make_options(dir, &logged));
    s.start();
    drive(s, log, 0, &ops, &marks);
    base_stats = s.stats_json();
    base_flags = s.take_flagged();
  }
  ASSERT_FALSE(base_flags.records.empty());

  // Records the process had handed to the vfs before op k: each WAL
  // write in the uninterrupted run is one frame, which leads with its
  // record count (headers are a separate 36-byte write).
  const auto records_before = [&](std::size_t k) {
    std::uint64_t n = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (is_frame_write(ops[j])) n += ops[j].lead;
    }
    return n;
  };
  const auto ckpt_renames_before = [&](std::size_t k) {
    return std::count_if(ops.begin(), ops.begin() + k, [](const StorageOp& o) {
      return o.kind == StorageOp::Kind::kRename && is_ckpt(o);
    });
  };

  enum Boundary {
    kTornFrame,
    kAfterAppend,
    kAfterRotation,
    kBeforeRename,
    kAfterRename,
    kAfterGroupCommit,
    kBoundaries
  };
  const char* const kNames[] = {"torn frame",        "after append",
                                "after rotation",    "before rename",
                                "after rename",      "after group commit"};
  std::size_t reached[kBoundaries] = {};
  std::size_t torn_healed = 0;

  for (std::size_t k = 0; k < ops.size(); ++k) {
    const StorageOp& op = ops[k];
    const StorageOp* prev = k > 0 ? &ops[k - 1] : nullptr;
    std::vector<Boundary> at;
    if (is_frame_write(op)) at.push_back(kTornFrame);
    if (marks.after_append.count(k) != 0) at.push_back(kAfterAppend);
    // A non-first segment's directory fsync ends its rotation.
    if (prev != nullptr && prev->kind == StorageOp::Kind::kDirSync &&
        is_wal(*prev) &&
        prev->path.find("wal-00000000000000000000.seg") == std::string::npos) {
      at.push_back(kAfterRotation);
    }
    if (op.kind == StorageOp::Kind::kRename && is_ckpt(op)) {
      at.push_back(kBeforeRename);
    }
    if (prev != nullptr && prev->kind == StorageOp::Kind::kRename &&
        is_ckpt(*prev)) {
      at.push_back(kAfterRename);
    }
    if (marks.after_commit.count(k) != 0) at.push_back(kAfterGroupCommit);
    if (at.empty()) continue;

    fs::remove_all(dir);
    io::FaultyVfs vfs(&crashtest::sweep_vfs());
    crashtest::arm_crash(vfs, k);
    bool crashed = false;
    {
      ServiceSupervisor victim(make_options(dir, &vfs));
      try {
        victim.start();
        drive(victim, log, 0);
      } catch (const io::VfsError& e) {
        ASSERT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
        crashed = true;
      }
    }
    ASSERT_TRUE(crashed) << "op " << k << " never reached";

    for (const Boundary b : at) {
      SCOPED_TRACE(std::string(kNames[b]) + " at op " + std::to_string(k));
      ++reached[b];
      if (b == kAfterRotation && op.kind != StorageOp::Kind::kWrite) {
        EXPECT_EQ(fs::file_size(prev->path), kSegmentHeaderBytes)
            << "header only";
      } else if (b == kBeforeRename) {
        EXPECT_FALSE(fs::exists(op.path));
        EXPECT_TRUE(fs::exists(op.path + ".tmp"));
      } else if (b == kAfterRename) {
        EXPECT_TRUE(fs::exists(prev->path));
        // Retention (1 generation) has not pruned the previous one yet.
        const std::size_t want = ckpt_renames_before(k) > 1 ? 2u : 1u;
        EXPECT_EQ(list_checkpoints(dir + "/ckpt").size(), want);
      }
    }

    ServiceSupervisor recovered(make_options(dir, &crashtest::sweep_vfs()));
    const RecoveryReport report = recovered.start();
    EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
    if (op.kind == StorageOp::Kind::kWrite) {
      if (report.torn_tails_healed > 0) ++torn_healed;
    } else {
      // Everything handed to the vfs survived; nothing else did.
      EXPECT_EQ(report.next_index, records_before(k)) << "op " << k;
      EXPECT_EQ(report.torn_tails_healed, 0u) << "op " << k;
    }
    if (prev != nullptr && prev->kind == StorageOp::Kind::kRename &&
        is_ckpt(*prev)) {
      EXPECT_EQ(report.checkpoint_file, prev->path) << "op " << k;
    }
    drive(recovered, log, report.next_index);
    EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
    ASSERT_EQ(recovered.stats_json(), base_stats) << "op " << k;
    const core::FlagBatch flags = recovered.take_flagged();
    ASSERT_EQ(flags.size(), base_flags.size()) << "op " << k;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      ASSERT_EQ(flags[i].account, base_flags[i].account) << "op " << k;
      ASSERT_EQ(flags[i].flagged_at, base_flags[i].flagged_at) << "op " << k;
    }
  }

  for (int b = 0; b < kBoundaries; ++b) {
    EXPECT_GT(reached[b], 0u) << "no crash point " << kNames[b];
  }
  EXPECT_GT(torn_healed, 0u) << "no crash tore a WAL frame";
}

}  // namespace
}  // namespace sybil::service
