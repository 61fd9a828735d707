// WAL unit suite: record round-trips, segment rotation, torn-tail
// healing (both via a process crash mid-record and via simulated torn
// writes), pruning, and cold-start scans (docs/FORMATS.md §WAL).
#include "service/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "faults/process_faults.h"
#include "io/error.h"
#include "io/faulty_vfs.h"
#include "osn/events.h"
#include "support/crash_vfs.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sybil_wal_" + name;
  fs::remove_all(dir);
  return dir;
}

osn::Event event_at(std::uint64_t i) {
  osn::Event e;
  e.type = static_cast<osn::EventType>(i % osn::kEventTypeCount);
  e.actor = static_cast<graph::NodeId>(i);
  e.subject = static_cast<graph::NodeId>(i + 1);
  e.time = 0.5 * static_cast<double>(i);
  return e;
}

/// The only segment file in `dir` (fails the test if there are more).
std::string only_segment(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "expected a single segment";
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty());
  return found;
}

TEST(Wal, RoundTripsRecords) {
  const std::string dir = fresh_dir("roundtrip");
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(w.append(event_at(i), 1000 + i,
                         static_cast<std::uint32_t>(i % 16)),
                i);
    }
    EXPECT_EQ(w.next_index(), 100u);
    EXPECT_EQ(w.segments_opened(), 1u);
  }
  WalScanReport report;
  const auto records = scan_wal(dir, 0, report);
  ASSERT_EQ(records.size(), 100u);
  for (std::uint64_t i = 0; i < records.size(); ++i) {
    const WalRecord& r = records[i];
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.seq, 1000 + i);
    EXPECT_EQ(r.flags, static_cast<std::uint32_t>(i % 16));
    const osn::Event e = event_at(i);
    EXPECT_EQ(r.event.type, e.type);
    EXPECT_EQ(r.event.actor, e.actor);
    EXPECT_EQ(r.event.subject, e.subject);
    EXPECT_DOUBLE_EQ(r.event.time, e.time);
  }
  EXPECT_EQ(report.next_index, 100u);
  EXPECT_EQ(report.records_scanned, 100u);
  EXPECT_EQ(report.records_returned, 100u);
  EXPECT_EQ(report.torn_tails_healed, 0u);
  EXPECT_EQ(report.records_truncated, 0u);
}

TEST(Wal, RotatesSegmentsAndSkipsCoveredOnesOnScan) {
  const std::string dir = fresh_dir("rotate");
  WalOptions opts;
  opts.dir = dir;
  opts.segment_records = 4;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 10; ++i) w.append(event_at(i), i, 0);
    EXPECT_EQ(w.segments_opened(), 3u);  // bases 0, 4, 8
  }
  WalScanReport report;
  auto records = scan_wal(dir, 0, report);
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(report.segments_scanned, 3u);

  // A scan from index 7 must skip the first segment entirely (its
  // whole range [0, 4) is behind) and return exactly records 7..9.
  records = scan_wal(dir, 7, report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().index, 7u);
  EXPECT_EQ(records.back().index, 9u);
  EXPECT_EQ(report.segments_scanned, 2u);
  EXPECT_EQ(report.next_index, 10u);
}

TEST(Wal, HealsTornTailFromSimulatedPartialFlush) {
  const std::string dir = fresh_dir("torn");
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 10; ++i) w.append(event_at(i), i, 0);
  }
  const std::string segment = only_segment(dir);
  const auto torn = faults::tear_file_tail(segment, /*seed=*/42,
                                           /*max_tear_bytes=*/30);
  ASSERT_GE(torn.bytes_torn, 1u);
  ASSERT_LE(torn.bytes_torn, 30u);

  // Record 9 is torn (or bit-flipped); strict prefix keeps 0..8.
  WalScanReport report;
  const auto records = scan_wal(dir, 0, report);
  ASSERT_EQ(records.size(), 9u);
  EXPECT_EQ(records.back().index, 8u);
  EXPECT_EQ(report.torn_tails_healed, 1u);
  EXPECT_GE(report.records_truncated, 1u);
  EXPECT_EQ(report.next_index, 9u);

  // Healing truncated the file in place; a rescan is clean.
  WalScanReport again;
  EXPECT_EQ(scan_wal(dir, 0, again).size(), 9u);
  EXPECT_EQ(again.torn_tails_healed, 0u);

  // A writer resumes on a fresh segment past the healed tail.
  {
    WalWriter w(opts, report.next_index);
    EXPECT_EQ(w.append(event_at(9), 9, 0), 9u);
  }
  EXPECT_EQ(scan_wal(dir, 0, again).size(), 10u);
}

TEST(Wal, ProcessCrashTearsRecordMidWrite) {
  const std::string dir = fresh_dir("crashhalf");
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kEveryAppend;  // each record is its own write
  opts.vfs = &vfs;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 3; ++i) w.append(event_at(i), i, 0);
    // The next op is record 3's write: the process dies inside it, and
    // the write persists a seeded strict prefix of the record.
    crashtest::arm_crash(vfs, vfs.ops());
    try {
      w.append(event_at(3), 3, 0);
      FAIL() << "expected a process crash";
    } catch (const io::VfsError& e) {
      EXPECT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash);
      EXPECT_GT(e.bytes_written(), 0u) << "seed must keep a torn prefix";
      EXPECT_LT(e.bytes_written(), 44u);
    }
    EXPECT_TRUE(vfs.dead());
  }  // process death: the dead device takes no further bytes
  WalScanReport report;
  const auto records = scan_wal(dir, 0, report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(report.torn_tails_healed, 1u);
  EXPECT_EQ(report.records_truncated, 1u);
  EXPECT_EQ(report.next_index, 3u);
}

TEST(Wal, PrunesFullyCoveredSegments) {
  const std::string dir = fresh_dir("prune");
  WalOptions opts;
  opts.dir = dir;
  opts.segment_records = 4;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 12; ++i) w.append(event_at(i), i, 0);
  }
  // Segments cover [0,4), [4,8), [8,...]; index 8 retires the first two.
  EXPECT_EQ(prune_wal(dir, 8), 2u);
  WalScanReport report;
  const auto records = scan_wal(dir, 8, report);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().index, 8u);
  // The live segment is never pruned, whatever the index.
  EXPECT_EQ(prune_wal(dir, 1000), 0u);
}

TEST(Wal, ScanOfMissingDirectoryIsAColdStart) {
  WalScanReport report;
  const auto records =
      scan_wal(fresh_dir("coldstart"), 0, report);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(report.next_index, 0u);
  EXPECT_EQ(report.segments_scanned, 0u);
}

TEST(Wal, ValidatesOptions) {
  WalOptions opts;
  EXPECT_THROW(opts.validate(), std::invalid_argument);  // empty dir
  opts.dir = fresh_dir("validate");
  opts.segment_records = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.segment_records = 1;
  EXPECT_NO_THROW(opts.validate());
}

}  // namespace
}  // namespace sybil::service
