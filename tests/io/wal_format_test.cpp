// The frozen WAL segment format (docs/FORMATS.md §8):
//
//   * tests/data/wal_v3.seg — the two-frame segment FORMATS.md §8.5
//     dissects — is what today's writer produces byte for byte, and it
//     scans back field-exact: derived indices, seqs, flags, an escaped
//     type byte and every stamp code;
//   * a v1 or v2 segment (fixed 44-byte records, no frames) is refused
//     with a typed SnapshotError(kFormatViolation), never skipped:
//     skipping would silently drop durable records.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/error.h"
#include "service/wal.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

std::string golden(const std::string& name) {
  return std::string(SYBIL_TEST_DATA_DIR) + "/" + name;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testsupport::fresh_temp_path("sybil_walfmt_", name);
  fs::create_directories(dir);
  return dir;
}

constexpr std::uint32_t kGoldenShard = 1;

/// The records behind tests/data/wal_v3.seg, offered as a shard of a
/// router would: frame one holds records 0-2, frame two records 3-4.
std::vector<WalRecord> golden_records() {
  using osn::EventType;
  const auto rec = [](std::uint64_t index, std::uint64_t seq, EventType type,
                      graph::NodeId actor, graph::NodeId subject,
                      graph::Time time, std::uint32_t flags,
                      graph::Time stamp) {
    WalRecord r;
    r.index = index;
    r.seq = seq;
    r.event = {type, actor, subject, time};
    r.flags = flags;
    r.stamp = stamp;
    return r;
  };
  return {
      // Sets the clock: the stamp is its own time (clock bit).
      rec(0, 0, EventType::kRequestSent, 7, 9, 1.5, 0, 1.5),
      // Late, shed at tier shed-low-priority: the stamp is still the
      // previous one, which the clock bit also implies.
      rec(1, 2, EventType::kAccountCreated, 11, 11, 1.0, 0x3, 1.5),
      // Another shard saw t=2.5 since: a raw stamp.
      rec(2, 3, EventType::kAccountBanned, 9, 9, 2.0, 0, 2.5),
      // Unknown type 9 (escaped), shed by capacity, first of its frame:
      // the stamp is raw again.
      rec(3, 5, static_cast<EventType>(9), 5, 6, 2.25, 0x9, 2.5),
      // Self-referential, so its time never moved the clock: the stamp
      // is coded as "the previous record's".
      rec(4, 6, EventType::kRequestSent, 6, 6, 3.0, 0, 2.5),
  };
}

void expect_records_equal(const std::vector<WalRecord>& got,
                          const std::vector<WalRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].flags, want[i].flags);
    EXPECT_EQ(got[i].event.type, want[i].event.type);
    EXPECT_EQ(got[i].event.actor, want[i].event.actor);
    EXPECT_EQ(got[i].event.subject, want[i].event.subject);
    EXPECT_EQ(got[i].event.time, want[i].event.time);
    EXPECT_EQ(got[i].stamp, want[i].stamp);
  }
}

TEST(Wal, V3BytesAreFrozen) {
  const std::string dir = fresh_dir("v3_write");
  {
    WalOptions opts;
    opts.dir = dir;
    opts.fsync = WalFsync::kNever;
    opts.shard_id = kGoldenShard;
    WalWriter w(opts, 0);
    const std::vector<WalRecord> records = golden_records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const WalRecord& r = records[i];
      EXPECT_EQ(w.append(r.event, r.seq, r.flags, r.stamp), r.index);
      if (i == 2) w.sync();  // seals frame one
    }
  }  // the destructor seals frame two
  const std::vector<char> fresh =
      read_file(dir + "/wal-00000000000000000000.seg");
  const std::vector<char> frozen = read_file(golden("wal_v3.seg"));
  ASSERT_EQ(frozen.size(), 186u);
  EXPECT_EQ(fresh, frozen) << "the v3 segment encoding changed";

  const std::string scan_dir = fresh_dir("v3_scan");
  fs::copy_file(golden("wal_v3.seg"),
                scan_dir + "/wal-00000000000000000000.seg");
  WalScanReport report;
  expect_records_equal(scan_wal(scan_dir, 0, report, kGoldenShard),
                       golden_records());
  EXPECT_EQ(report.next_index, 5u);
  EXPECT_EQ(report.last_stamp, 2.5);
  EXPECT_EQ(report.torn_tails_healed, 0u);
  EXPECT_EQ(report.records_truncated, 0u);
}

/// FORMATS.md's old worked example: a v1 segment of three fixed 44-byte
/// records (the v2 layout is the same with shard id at offset 12).
std::vector<unsigned char> v1_segment() {
  return {
      0x53, 0x59, 0x57, 0x4c, 0x02, 0x01, 0x18, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x5c, 0xbb, 0x34, 0xca, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf8, 0x3f, 0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf5, 0xef, 0xc8, 0xd3,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
      0x0b, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0xb2, 0x9a, 0x0d, 0x0a, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, 0x09, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
}

TEST(Wal, OlderSegmentsAreRefusedTyped) {
  for (const unsigned char version : {1, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string dir = fresh_dir("v" + std::to_string(version));
    std::vector<unsigned char> bytes = v1_segment();
    ASSERT_EQ(bytes.size(), 156u);
    bytes[8] = version;
    {
      std::ofstream out(dir + "/wal-00000000000000000000.seg",
                        std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    WalScanReport report;
    try {
      scan_wal(dir, 0, report);
      FAIL() << "an older segment must not scan";
    } catch (const io::SnapshotError& e) {
      EXPECT_EQ(e.code(), io::SnapshotErrorCode::kFormatViolation) << e.what();
    }
    // Refused, not healed: the file is left exactly as it was.
    EXPECT_EQ(fs::file_size(dir + "/wal-00000000000000000000.seg"), 156u);
  }
}

}  // namespace
}  // namespace sybil::service
