// WAL unit suite: record round-trips, segment rotation at commits,
// appends that never touch storage, torn-tail healing (both via a
// process crash mid-frame and via simulated torn writes), pruning,
// cold-start scans, the byte counter, the frozen v3 golden segment and
// the refusal of v2 segments (docs/FORMATS.md §8); short reads that
// fail typed and heal nothing; the read-only cursor recovery drains its
// queue through, and its typed refusals.
#include "service/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics/instrument.h"
#include "core/metrics/metrics.h"
#include "faults/process_faults.h"
#include "io/error.h"
#include "io/faulty_vfs.h"
#include "osn/events.h"
#include "support/crash_vfs.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  return testsupport::fresh_temp_path("sybil_wal_", name);
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
    for (std::uint64_t i = 0; i < 10; ++i) {
      w.append(event_at(i), i, 0);
      w.commit();  // rotates once the segment is full
    }
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
    // One frame per record (sync() seals whatever is pending), so a tear
    // inside the last 39-byte frame costs exactly its one record.
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 10; ++i) {
      w.append(event_at(i), i, 0);
      w.sync();
    }
  }
  const std::string segment = only_segment(dir);
  const auto torn = faults::tear_file_tail(segment, /*seed=*/42,
                                           /*max_tear_bytes=*/30);
  ASSERT_GE(torn.bytes_torn, 1u);
  ASSERT_LE(torn.bytes_torn, 30u);

  // Record 9's frame is torn (or bit-flipped) and dropped whole; strict
  // prefix keeps 0..8.
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
  opts.fsync = WalFsync::kEveryAppend;  // each commit is its own write
  opts.vfs = &vfs;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 3; ++i) {
      w.append(event_at(i), i, 0);
      w.commit();
    }
    // The next op is the write of record 3's frame: the process dies
    // inside it, and the write persists a seeded strict prefix of the
    // 39-byte frame (20 bytes of framing around a 19-byte record).
    w.append(event_at(3), 3, 0);
    crashtest::arm_crash(vfs, vfs.ops());
    try {
      w.commit();
      FAIL() << "expected a process crash";
    } catch (const io::VfsError& e) {
      EXPECT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash);
      EXPECT_GT(e.bytes_written(), 0u) << "seed must keep a torn prefix";
      EXPECT_LT(e.bytes_written(), 39u);
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

TEST(Wal, AppendsNeverTouchStorageUntilCommit) {
  const std::string dir = fresh_dir("deferred");
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  WalOptions opts;
  opts.dir = dir;
  opts.segment_records = 4;
  opts.fsync = WalFsync::kEveryAppend;
  opts.vfs = &vfs;
  constexpr std::uint64_t kRecords = 3 * 4;
  WalWriter w(opts, 0);

  // Every op from here on fails: appends must not notice.
  const std::uint64_t ops = vfs.ops();
  io::FaultConfig cfg;
  cfg.fail_from = ops;
  cfg.fail_count = io::FaultConfig::kNever;
  cfg.fail_kind = io::VfsFaultKind::kIoError;
  vfs.configure(cfg);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_NO_THROW(EXPECT_EQ(w.append(event_at(i), i, 0), i));
  }
  EXPECT_EQ(vfs.ops(), ops);

  // The commit does the I/O, fails, and keeps every record retained.
  EXPECT_THROW(w.commit(), io::VfsError);
  EXPECT_EQ(w.unsynced_records(), kRecords);
  EXPECT_EQ(w.next_index(), kRecords);

  vfs.clear_faults();
  EXPECT_EQ(w.commit(), kRecords);
  EXPECT_EQ(w.unsynced_records(), 0u);
  WalScanReport report;
  const auto records = scan_wal(dir, 0, report);
  ASSERT_EQ(records.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].index, i);
    EXPECT_EQ(records[i].seq, i);
  }
  EXPECT_EQ(report.torn_tails_healed, 0u);

  // Nothing pending: a commit issues no I/O.
  const std::uint64_t idle = vfs.ops();
  EXPECT_EQ(w.commit(), 0u);
  EXPECT_EQ(vfs.ops(), idle);
}

TEST(Wal, PrunesFullyCoveredSegments) {
  const std::string dir = fresh_dir("prune");
  WalOptions opts;
  opts.dir = dir;
  opts.segment_records = 4;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 12; ++i) {
      w.append(event_at(i), i, 0);
      w.commit();
    }
  }
  // Segments cover [0,4), [4,8), [8,12) and the live [12,...) the last
  // commit rotated to; index 8 retires the first two.
  EXPECT_EQ(prune_wal(dir, 8), 2u);
  WalScanReport report;
  const auto records = scan_wal(dir, 8, report);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().index, 8u);
  // The live segment is never pruned, whatever the index: only the
  // sealed [8,12) goes.
  EXPECT_EQ(prune_wal(dir, 1000), 1u);
  EXPECT_EQ(prune_wal(dir, 1000), 0u);
  EXPECT_TRUE(fs::exists(dir + "/wal-00000000000000000012.seg"));
}

TEST(Wal, SegmentHeaderKeepsTheClockOfPrunedRecords) {
  const std::string dir = fresh_dir("clock");
  WalOptions opts;
  opts.dir = dir;
  opts.segment_records = 4;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0, /*clock=*/5.0);
    for (std::uint64_t i = 0; i < 8; ++i) {
      w.append(event_at(i), i, 0, 10.0 + static_cast<double>(i));
      w.commit();  // rotates after records 3 and 7
    }
  }
  WalScanReport report;
  EXPECT_EQ(scan_wal(dir, 0, report).size(), 8u);
  EXPECT_EQ(report.last_stamp, 17.0);
  // Every record is pruned; the live segment's header still holds the
  // stamp of record 7, the clock a writer at index 8 continues.
  EXPECT_EQ(prune_wal(dir, 8), 2u);
  EXPECT_TRUE(scan_wal(dir, 8, report).empty());
  EXPECT_EQ(report.next_index, 8u);
  EXPECT_EQ(report.last_stamp, 17.0);
}

TEST(Wal, ScanOfMissingDirectoryIsAColdStart) {
  WalScanReport report;
  const auto records =
      scan_wal(fresh_dir("coldstart"), 0, report);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(report.next_index, 0u);
  EXPECT_EQ(report.segments_scanned, 0u);
}

#if SYBIL_METRICS_COMPILED
/// service.wal.bytes counts what reaches the files — segment headers,
/// frame headers, records and CRCs — so it equals their total size,
/// across rotations and the frame the destructor seals.
TEST(Wal, BytesCounterEqualsTheSegmentFiles) {
  auto& registry = core::metrics::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);  // the test counts; restored at the end
  core::metrics::Counter& bytes = registry.counter("service.wal.bytes");
  const std::uint64_t before = bytes.value();
  const std::string dir = fresh_dir("bytes");
  WalOptions opts;
  opts.dir = dir;
  opts.segment_records = 4;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 13; ++i) {
      w.append(event_at(i), 2 * i, 0, 0.5 * static_cast<double>(i));
      if (i < 10) w.commit();  // rotates at every fourth record
    }
    EXPECT_EQ(w.segments_opened(), 3u);
  }
  std::uint64_t on_disk = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    on_disk += fs::file_size(entry.path());
  }
  EXPECT_EQ(bytes.value() - before, on_disk);
  WalScanReport report;
  EXPECT_EQ(scan_wal(dir, 0, report).size(), 13u);
  registry.set_enabled(was_enabled);
}
#endif  // SYBIL_METRICS_COMPILED

TEST(Wal, ValidatesOptions) {
  WalOptions opts;
  EXPECT_THROW(opts.validate(), std::invalid_argument);  // empty dir
  opts.dir = fresh_dir("validate");
  opts.segment_records = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.segment_records = 1;
  EXPECT_NO_THROW(opts.validate());
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void flip_byte(const std::string& path, std::uint64_t at) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(at));
  const char c = static_cast<char>(f.get() ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(at));
  f.put(c);
}

/// Reads through the real filesystem but reports end-of-file after
/// `limit` bytes of every file it opens for reading, as a device or a
/// racing truncation could; every other op passes straight through.
class ShortReadVfs final : public io::Vfs {
 public:
  explicit ShortReadVfs(std::size_t limit) : limit_(limit) {}

  std::unique_ptr<io::VfsFile> open(const std::string& path,
                                    io::VfsMode mode) override {
    auto inner = io::real_vfs().open(path, mode);
    if (mode != io::VfsMode::kRead) return inner;
    return std::make_unique<File>(std::move(inner), limit_);
  }
  void rename(const std::string& from, const std::string& to) override {
    io::real_vfs().rename(from, to);
  }
  bool remove(const std::string& path) noexcept override {
    return io::real_vfs().remove(path);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    io::real_vfs().truncate(path, size);
  }
  void sync_parent_dir(const std::string& path) override {
    io::real_vfs().sync_parent_dir(path);
  }

 private:
  class File final : public io::VfsFile {
   public:
    File(std::unique_ptr<io::VfsFile> inner, std::size_t left)
        : inner_(std::move(inner)), left_(left) {}
    std::size_t read(void* buf, std::size_t n) override {
      const std::size_t got = inner_->read(buf, std::min(n, left_));
      left_ -= got;
      return got;
    }
    void write(const void* buf, std::size_t n) override {
      inner_->write(buf, n);
    }
    void fsync() override { inner_->fsync(); }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<io::VfsFile> inner_;
    std::size_t left_;
  };
  std::size_t limit_;
};

void expect_snapshot_error(const std::function<void()>& f,
                           io::SnapshotErrorCode code) {
  try {
    f();
    ADD_FAILURE() << "no SnapshotError";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

// A segment that reads short of its listed size is refused typed, at
// the header and mid-frame alike. Healing it would truncate durable
// frames the read merely missed, so the file stays byte-for-byte.
TEST(Wal, ShortReadFailsTypedAndHealsNothing) {
  const std::string dir = fresh_dir("short_read");
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kNever;
  {
    WalWriter w(opts, 0);
    for (std::uint64_t i = 0; i < 20; ++i) {
      w.append(event_at(i), i, 0);
      if (i % 5 == 4) w.sync();  // four frames
    }
  }
  const std::string segment = only_segment(dir);
  const std::vector<char> before = file_bytes(segment);
  for (const std::size_t limit : {std::size_t{0}, std::size_t{20},
                                  before.size() / 2, before.size() - 1}) {
    SCOPED_TRACE("reads end after " + std::to_string(limit) + " bytes");
    ShortReadVfs vfs(limit);
    expect_snapshot_error(
        [&] {
          WalScanReport report;
          scan_wal(dir, 0, report, kWalAnyShard, &vfs);
        },
        io::SnapshotErrorCode::kTruncated);
    expect_snapshot_error(
        [&] {
          WalCursor cursor(dir, 0, 20, 20, kWalAnyShard, &vfs);
          cursor.head();
        },
        io::SnapshotErrorCode::kTruncated);
    EXPECT_EQ(file_bytes(segment), before);
  }
  ShortReadVfs whole(before.size());
  WalScanReport report;
  EXPECT_EQ(scan_wal(dir, 0, report, kWalAnyShard, &whole).size(), 20u);
  EXPECT_EQ(report.torn_tails_healed, 0u);
}

/// 30 records in 4-record segments, one frame per two records; every
/// third record shed.
void write_cursor_log(const std::string& dir) {
  WalOptions opts;
  opts.dir = dir;
  opts.fsync = WalFsync::kNever;
  opts.segment_records = 4;
  WalWriter w(opts, 0);
  for (std::uint64_t i = 0; i < 30; ++i) {
    w.append(event_at(i), 100 + i, i % 3 == 2 ? WalRecordFlags::kShed : 0u,
             static_cast<graph::Time>(i));
    if (i % 2 == 1) w.sync();
  }
}

// The cursor yields exactly the admitted records of [begin, end), in
// order, across frames and segments, and reads nothing it need not.
TEST(Wal, CursorYieldsTheAdmittedRecordsOfItsRange) {
  const std::string dir = fresh_dir("cursor_range");
  write_cursor_log(dir);
  for (const std::uint64_t begin : {0u, 3u, 4u, 13u}) {
    SCOPED_TRACE("begin " + std::to_string(begin));
    std::vector<std::uint64_t> want;
    for (std::uint64_t i = begin; i < 30; ++i) {
      if (i % 3 != 2) want.push_back(i);
    }
    WalCursor cursor(dir, begin, 30, want.size(), kWalAnyShard);
    std::vector<std::uint64_t> got;
    while (cursor.pending() > 0) {
      const WalRecord& r = cursor.head();
      EXPECT_EQ(r.seq, 100 + r.index);
      EXPECT_EQ(r.stamp, static_cast<graph::Time>(r.index));
      EXPECT_FALSE(r.shed());
      got.push_back(r.index);
      cursor.pop();
    }
    EXPECT_EQ(got, want);
  }
  // Stopping short of the range's end: nothing past the last pending
  // record is read, so a corrupt tail beyond it goes unnoticed.
  flip_byte(dir + "/wal-00000000000000000028.seg", 40);
  WalCursor early(dir, 0, 30, 3, kWalAnyShard);
  for (const std::uint64_t want : {0u, 1u, 3u}) {
    EXPECT_EQ(early.head().index, want);
    early.pop();
  }
}

// Corruption, a lost segment and a range that ends early throw typed,
// from where the cursor stands, and throw again on retry.
TEST(Wal, CursorRefusesWhatNoLongerMatchesTheScan) {
  struct Case {
    const char* what;
    std::function<void(const std::string&)> damage;
    io::SnapshotErrorCode code;
    std::uint64_t pending;
  };
  const std::vector<Case> cases = {
      {"frame byte flipped",
       [](const std::string& d) {
         flip_byte(d + "/wal-00000000000000000008.seg", 36 + 16 + 3);
       },
       io::SnapshotErrorCode::kChecksumMismatch, 20},
      {"header byte flipped",
       [](const std::string& d) {
         flip_byte(d + "/wal-00000000000000000008.seg", 20);
       },
       io::SnapshotErrorCode::kChecksumMismatch, 20},
      {"segment lost",
       [](const std::string& d) {
         fs::remove(d + "/wal-00000000000000000008.seg");
       },
       io::SnapshotErrorCode::kTruncated, 20},
      {"range ends early", [](const std::string&) {},
       io::SnapshotErrorCode::kTruncated, 21},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string dir = fresh_dir("cursor_refuses");
    write_cursor_log(dir);
    c.damage(dir);
    WalCursor cursor(dir, 0, 30, c.pending, kWalAnyShard);
    std::uint64_t popped = 0;
    const auto drain = [&] {
      while (cursor.pending() > 0) {
        cursor.head();
        cursor.pop();
        ++popped;
      }
    };
    expect_snapshot_error(drain, c.code);
    const std::uint64_t stood = popped;
    expect_snapshot_error(drain, c.code);
    EXPECT_EQ(popped, stood);
    EXPECT_EQ(cursor.pending(), c.pending - stood);
  }
}


}  // namespace
}  // namespace sybil::service
